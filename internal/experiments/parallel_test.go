package experiments

import (
	"runtime"
	"testing"
)

func TestSetParallelismClamp(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(0)
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("SetParallelism(0) = %d, want GOMAXPROCS %d", got, want)
	}
	SetParallelism(3)
	if Parallelism() != 3 {
		t.Fatalf("SetParallelism(3) = %d", Parallelism())
	}
}
