package cdfg

import "math"

// NodeMarks is a set of node IDs for scratch use in graph walks, emptied in
// constant time. Each node carries a stamp, and the members are the nodes
// stamped with the current epoch; Reset starts a new epoch instead of
// clearing. The zero value is ready for Reset.
type NodeMarks struct {
	stamp []uint32
	epoch uint32
}

// Reset empties the set and sizes it for node IDs below n.
func (m *NodeMarks) Reset(n int) {
	if len(m.stamp) < n {
		// Fresh zeros never equal a live epoch (epochs start at 1).
		m.stamp = make([]uint32, n)
	}
	if m.epoch == math.MaxUint32 {
		clear(m.stamp)
		m.epoch = 0
	}
	m.epoch++
}

// Add inserts v and reports whether it was absent.
func (m *NodeMarks) Add(v NodeID) bool {
	if m.stamp[v] == m.epoch {
		return false
	}
	m.stamp[v] = m.epoch
	return true
}

// Has reports whether v is in the set.
func (m *NodeMarks) Has(v NodeID) bool { return m.stamp[v] == m.epoch }
