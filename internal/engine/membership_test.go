package engine

import (
	"testing"

	"iswitch/internal/protocol"
)

func TestMembershipTable(t *testing.T) {
	m := NewMembership()
	a := protocol.AddrFrom(10, 0, 0, 2, 9999)
	b := protocol.AddrFrom(10, 0, 0, 4, 9999)
	id0 := m.Join(a, MemberWorker, 4, 100)
	id1 := m.Join(b, MemberWorker, 4, 100)
	if id0 == id1 {
		t.Fatal("duplicate IDs")
	}
	if again := m.Join(a, MemberWorker, 4, 200); again != id0 {
		t.Fatalf("re-join changed ID %d → %d", id0, again)
	}
	if m.Count() != 2 {
		t.Fatalf("count = %d", m.Count())
	}
	e, ok := m.Lookup(a)
	if !ok || e.ModelFloats != 200 {
		t.Fatalf("lookup: %+v %v (re-join should refresh)", e, ok)
	}
	if !m.Leave(a) || m.Leave(a) {
		t.Fatal("leave not idempotent-correct")
	}
	if m.Count() != 1 || len(m.Workers()) != 1 {
		t.Fatalf("after leave: count=%d", m.Count())
	}
	if _, ok := m.Lookup(a); ok {
		t.Fatal("lookup found removed member")
	}
	if m.String() == "" {
		t.Fatal("empty render")
	}
}
