package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"iswitch/internal/protocol"
)

// TestJobContextsMatchMapReference drives a seeded script of admits,
// evictions, preemptions and restores, over job IDs that include the
// slice's edges (1, 300, 65535), against a map of the contexts each job
// should hold. After every step each job resolves to exactly the
// context the map holds for it, and Jobs lists the map's keys in order.
func TestJobContextsMatchMapReference(t *testing.T) {
	ids := []protocol.JobID{0, 1, 2, 7, 64, 300, 65535}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New(shadowSelf, &clock{})
		ref := map[protocol.JobID]*jobCtx{protocol.DefaultJob: e.def}
		type held struct {
			cp  *JobCheckpoint
			ctx *jobCtx // nil once restored
		}
		var cps []held
		for step := 0; step < 400; step++ {
			job := ids[rng.Intn(len(ids))]
			switch op := rng.Intn(4); op {
			case 0:
				if err := e.AdmitJob(job, 16); err != nil {
					t.Fatalf("seed %d step %d: admit %d: %v", seed, step, job, err)
				}
				if ref[job] == nil {
					ref[job] = e.ctx(job)
				}
			case 1:
				if got, want := e.EvictJob(job), job != protocol.DefaultJob && ref[job] != nil; got != want {
					t.Fatalf("seed %d step %d: evict %d reported %v, want %v", seed, step, job, got, want)
				}
				if job != protocol.DefaultJob {
					delete(ref, job)
				}
			case 2:
				cp, err := e.PreemptJob(job)
				if want := job != protocol.DefaultJob && ref[job] != nil; (err == nil) != want {
					t.Fatalf("seed %d step %d: preempt %d: %v, want success %v", seed, step, job, err, want)
				}
				if err == nil {
					cps = append(cps, held{cp, ref[job]})
					delete(ref, job)
				}
			case 3:
				if len(cps) == 0 {
					continue
				}
				i := rng.Intn(len(cps))
				h := &cps[i]
				err := e.RestoreJob(h.cp)
				if want := h.ctx != nil && ref[h.cp.Job] == nil; (err == nil) != want {
					t.Fatalf("seed %d step %d: restore %d: %v, want success %v", seed, step, h.cp.Job, err, want)
				}
				if err == nil {
					ref[h.cp.Job], h.ctx = h.ctx, nil
				}
			}
			var want []protocol.JobID
			for _, id := range ids {
				if e.ctx(id) != ref[id] {
					t.Fatalf("seed %d step %d: job %d resolves to %p, want %p", seed, step, id, e.ctx(id), ref[id])
				}
			}
			for id := range ref {
				want = append(want, id)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if got := e.Jobs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Jobs() = %v, want %v", seed, step, got, want)
			}
		}
	}
}
