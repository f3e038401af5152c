package domain

import (
	"sync"
	"sync/atomic"

	"localwm/internal/cdfg"
	"localwm/internal/order"
)

// memoBudgetPerNode sizes a memo's budget: memoBudgetPerNode·n units on a
// graph of n nodes. A slot table costs n units and a memoized tree one
// unit per node, so a full table of default-τ trees fits on the Table I
// designs: PGP (2,097 nodes, 1,737 eligible roots) holds 192,609 tree
// nodes at τ = 20 against a budget of 268,416.
const memoBudgetPerNode = 128

// memo is the per-structure cache behind Select, kept in the graph's
// StructMemo slot: for each tree bound (MaxDist, MaxTreeSize) after
// defaults, a table of one atomic slot per root holding the canonical
// ordering of that root's capped fan-in tree. Clone shares it and any
// structural mutation drops it (cdfg.Graph.StructMemo), so a slot can
// only ever hold what Select would compute on the graph reading it.
//
// Records are client input, so the memo is bounded: once tables and
// trees would exceed the budget, Select runs uncached.
type memo struct {
	n      int   // nodes of the structure; every table has n slots
	budget int64 // memoBudgetPerNode·n units
	used   atomic.Int64
	mu     sync.Mutex // serializes table creation
	tables atomic.Pointer[[]*memoTable]
}

// memoTable holds the ordered trees of one tree bound, indexed by root.
// A slot's first store wins; its value is read-only from then on.
type memoTable struct {
	maxDist, maxTree int
	slots            []atomic.Pointer[order.Result]
}

// memoOf returns g's memo, creating it on first use.
func memoOf(g *cdfg.Graph) *memo {
	n := g.Len()
	return g.StructMemo(func() any {
		m := &memo{n: n, budget: memoBudgetPerNode * int64(n)}
		m.tables.Store(new([]*memoTable))
		return m
	}).(*memo)
}

// slot returns the slot of root in the table for (maxDist, maxTree), or
// nil when the budget has no room for a new table.
func (m *memo) slot(root cdfg.NodeID, maxDist, maxTree int) *atomic.Pointer[order.Result] {
	if t := m.table(maxDist, maxTree); t != nil {
		return &t.slots[root]
	}
	return nil
}

// table finds the table for (maxDist, maxTree), creating it if the
// budget allows. Tables are few (one per tree bound in use), so a scan
// beats hashing a key.
func (m *memo) table(maxDist, maxTree int) *memoTable {
	if t := m.find(maxDist, maxTree); t != nil {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.find(maxDist, maxTree); t != nil || !m.charge(int64(m.n)) {
		return t
	}
	t := &memoTable{maxDist: maxDist, maxTree: maxTree, slots: make([]atomic.Pointer[order.Result], m.n)}
	tables := *m.tables.Load()
	tables = append(tables[:len(tables):len(tables)], t)
	m.tables.Store(&tables)
	return t
}

// find returns the table for (maxDist, maxTree), or nil.
func (m *memo) find(maxDist, maxTree int) *memoTable {
	for _, t := range *m.tables.Load() {
		if t.maxDist == maxDist && t.maxTree == maxTree {
			return t
		}
	}
	return nil
}

// store offers ord to slot and returns the slot's value: ord, or the
// equal result a concurrent Select stored first. Past the budget, ord is
// returned unstored.
func (m *memo) store(slot *atomic.Pointer[order.Result], ord *order.Result) *order.Result {
	cost := int64(len(ord.Ordered))
	if !m.charge(cost) {
		return ord
	}
	if slot.CompareAndSwap(nil, ord) {
		return ord
	}
	m.used.Add(-cost)
	return slot.Load()
}

// charge takes units from the budget and reports whether they fit.
func (m *memo) charge(units int64) bool {
	for {
		u := m.used.Load()
		if u+units > m.budget {
			return false
		}
		if m.used.CompareAndSwap(u, u+units) {
			return true
		}
	}
}
