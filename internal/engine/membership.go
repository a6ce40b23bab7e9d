package engine

import (
	"fmt"

	"iswitch/internal/protocol"
)

// MemberType distinguishes the two kinds of membership entries
// (Figure 9).
type MemberType int

const (
	// MemberWorker is a training worker attached below this switch.
	MemberWorker MemberType = iota
	// MemberSwitch is a lower-level switch whose aggregates feed this
	// switch (hierarchical aggregation).
	MemberSwitch
)

// String names the member type as the paper's table does.
func (t MemberType) String() string {
	if t == MemberSwitch {
		return "Switch"
	}
	return "Worker"
}

// Member is one row of the membership table: ID, IP address, UDP port,
// type, and the parent entry in the network topology.
type Member struct {
	ID     int
	Addr   protocol.Addr
	Type   MemberType
	Parent int // parent member ID, or -1 for the root entry
	// ModelFloats is the gradient length announced at Join.
	ModelFloats uint64
	// Key is Addr.String(), rendered once at Join: the name the
	// accelerator's dedup bitmap knows this contributor by.
	Key string
}

// Membership is the control plane's member table. Iteration order is
// join order, keeping simulations deterministic.
type Membership struct {
	members []Member
	byAddr  map[uint64]int // Addr.Key -> index in members
	nextID  int
}

// NewMembership returns an empty table.
func NewMembership() *Membership {
	return &Membership{byAddr: make(map[uint64]int)}
}

// Join adds (or refreshes) an entry and returns its ID. Joining twice
// from the same address updates the row instead of duplicating it.
func (m *Membership) Join(addr protocol.Addr, typ MemberType, parent int, modelFloats uint64) int {
	if i, ok := m.byAddr[addr.Key()]; ok {
		m.members[i].Type = typ
		m.members[i].Parent = parent
		m.members[i].ModelFloats = modelFloats
		return m.members[i].ID
	}
	id := m.nextID
	m.nextID++
	m.byAddr[addr.Key()] = len(m.members)
	m.members = append(m.members, Member{
		ID: id, Addr: addr, Type: typ, Parent: parent, ModelFloats: modelFloats,
		Key: addr.String(),
	})
	return id
}

// KeyOf returns the dedup key for a contribution from addr: the
// member's Key, or a fresh rendering for an address that never joined.
func (m *Membership) KeyOf(addr protocol.Addr) string {
	if i, ok := m.byAddr[addr.Key()]; ok {
		return m.members[i].Key
	}
	return addr.String()
}

// Leave removes the entry for addr. It reports whether one existed.
func (m *Membership) Leave(addr protocol.Addr) bool {
	i, ok := m.byAddr[addr.Key()]
	if !ok {
		return false
	}
	delete(m.byAddr, addr.Key())
	m.members = append(m.members[:i], m.members[i+1:]...)
	for j := i; j < len(m.members); j++ {
		m.byAddr[m.members[j].Addr.Key()] = j
	}
	return true
}

// Lookup returns the entry for addr.
func (m *Membership) Lookup(addr protocol.Addr) (Member, bool) {
	i, ok := m.byAddr[addr.Key()]
	if !ok {
		return Member{}, false
	}
	return m.members[i], true
}

// Members returns all entries in join order. The slice is shared; do
// not mutate.
func (m *Membership) Members() []Member { return m.members }

// Count returns the number of entries.
func (m *Membership) Count() int { return len(m.members) }

// Workers returns the entries of worker type, in join order.
func (m *Membership) Workers() []Member {
	var w []Member
	for _, e := range m.members {
		if e.Type == MemberWorker {
			w = append(w, e)
		}
	}
	return w
}

// String renders the table like the paper's Figure 9.
func (m *Membership) String() string {
	s := "ID\tIP:Port\tType\tParent\n"
	for _, e := range m.members {
		s += fmt.Sprintf("%d\t%s\t%s\t%d\n", e.ID, e.Addr, e.Type, e.Parent)
	}
	return s
}
