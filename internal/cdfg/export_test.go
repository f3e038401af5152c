package cdfg

import "testing"

// CheckPrecedence runs checkPrecedence for the external tests that drive
// it over the registered designs.
func CheckPrecedence(t testing.TB, g *Graph, pending []Edge, weight WeightFunc, tempW int, pairs [][2]NodeID) {
	t.Helper()
	checkPrecedence(t, g, pending, weight, tempW, pairs)
}
