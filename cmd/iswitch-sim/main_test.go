package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenRuns are the flag sets whose stdout testdata/<name>.golden pins
// byte for byte: the CI smoke runs (multi-tenant job sweep, sharded
// sync and async PS, ring all-reduce on a tree) and one run each of the
// in-switch strategy, the three-tier fabric, Algorithm 1 and the packet
// trace. After an intended change to virtual time, regenerate a file
// with `go run ./cmd/iswitch-sim <args> > cmd/iswitch-sim/testdata/<name>.golden`.
var goldenRuns = []struct{ name, args string }{
	{"jobs3", "-jobs 3 -workers 2 -workload PPO -iters 2 -topology tree"},
	{"ps_shards2", "-strategy ps -ps-shards 2"},
	{"ps_shards2_async", "-strategy ps -ps-shards 2 -mode async -updates 20"},
	{"ar_tree", "-strategy ar -workers 6 -topology tree"},
	{"isw", "-strategy isw"},
	{"threetier", "-topology 3tier"},
	{"async", "-mode async -updates 20"},
	{"isw_trace", "-strategy isw -trace 5"},
}

func TestGoldenStdout(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(g.args), &out); err != nil {
				t.Fatalf("iswitch-sim %s: %v", g.args, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out.String() == string(want) {
				return
			}
			got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
			for i := range min(len(got), len(wantLines)) {
				if got[i] != wantLines[i] {
					t.Fatalf("line %d:\n got %q\nwant %q", i+1, got[i], wantLines[i])
				}
			}
			t.Fatalf("got %d lines, want %d", len(got), len(wantLines))
		})
	}
}

// A job that can never finish is an error, not a hang.
func TestRejectsBadJobs(t *testing.T) {
	for _, args := range []string{
		"-mode async -staleness -1",
		"-strategy isw -mode async -staleness -1 -updates 5",
		"-jobs 2 -workers 2 -topology tree -mode async -staleness -1",
		"-iters 0",
		"-mode async -updates 0",
		"-strategy ar -mode async",
	} {
		done := make(chan error, 1)
		go func() { done <- run(strings.Fields(args), new(bytes.Buffer)) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("iswitch-sim %s: accepted", args)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iswitch-sim %s: still running after 10s", args)
		}
	}
}
