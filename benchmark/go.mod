module iswitch/benchmark

go 1.22

require iswitch v0.0.0

replace iswitch => ../
