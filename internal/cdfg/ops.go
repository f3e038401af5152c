// Package cdfg implements hierarchical control-data flow graphs (CDFGs)
// with homogeneous synchronous-data-flow (SDF) semantics, the computational
// model used throughout the local-watermarking paper (Kirovski & Potkonjak).
//
// A CDFG is a directed acyclic graph whose nodes are primitive operations
// and whose edges are either data edges (value flow), control edges
// (sequencing imposed by the original specification), or temporal edges
// (extra precedence constraints; the watermarking protocol encodes the
// author's signature as a set of these). Every node consumes and produces
// exactly one sample per execution (homogeneous SDF), so precedence and
// unit-latency path length are the only timing notions the model needs.
package cdfg

import "fmt"

// Op identifies the functionality performed by a node. The watermarking
// protocol's ordering criterion C3 requires that "all possible distinct
// operations are uniquely identified (e.g., addition is identified with 1,
// multiplication with 2, etc.)"; the integer value of an Op is exactly that
// identifier.
type Op int

// The operation taxonomy covers the DSP kernels used in the paper's
// benchmarks (IIR/FIR filters, Volterra kernels, echo cancelers, wavelet
// and modem filters) plus the generic ALU/memory/branch operations needed
// to model MediaBench-scale compiled code on the VLIW machine.
const (
	OpInvalid  Op = iota // zero value; never valid in a checked graph
	OpInput              // primary input (graph source)
	OpOutput             // primary output (graph sink)
	OpConst              // constant generator
	OpAdd                // addition
	OpSub                // subtraction
	OpMul                // multiplication (two variable operands)
	OpMulConst           // multiplication by a compile-time constant (filter tap)
	OpDiv                // division
	OpShift              // arithmetic/logical shift
	OpAnd                // bitwise and
	OpOr                 // bitwise or
	OpXor                // bitwise xor
	OpNot                // bitwise complement
	OpCmp                // comparison producing a flag
	OpMux                // 2:1 select driven by a flag
	OpLoad               // memory read
	OpStore              // memory write
	OpBranch             // control-flow operation
	OpDelay              // unit sample delay (z^-1 register)
	OpUnit               // unit operator (identity; the paper induces temporal
	// edges in compiled code "using additional operations with unit
	// operators (e.g., additions with variables assigned to zero)")
	opSentinel // one past the last valid op
)

var opNames = [...]string{
	OpInvalid:  "invalid",
	OpInput:    "in",
	OpOutput:   "out",
	OpConst:    "const",
	OpAdd:      "add",
	OpSub:      "sub",
	OpMul:      "mul",
	OpMulConst: "cmul",
	OpDiv:      "div",
	OpShift:    "shift",
	OpAnd:      "and",
	OpOr:       "or",
	OpXor:      "xor",
	OpNot:      "not",
	OpCmp:      "cmp",
	OpMux:      "mux",
	OpLoad:     "load",
	OpStore:    "store",
	OpBranch:   "branch",
	OpDelay:    "delay",
	OpUnit:     "unit",
}

// String returns the mnemonic used by the text serialization format.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Valid reports whether o is one of the defined operation kinds (excluding
// OpInvalid).
func (o Op) Valid() bool { return o > OpInvalid && o < opSentinel }

// ParseOp converts a mnemonic produced by Op.String back into an Op.
func ParseOp(s string) (Op, error) {
	if op, ok := lookupOp([]byte(s)); ok {
		return op, nil
	}
	return OpInvalid, unknownOp(s)
}

// lookupOp finds the Op whose mnemonic is b.
func lookupOp(b []byte) (Op, bool) {
	for op, name := range opNames {
		if Op(op) != OpInvalid && name == string(b) {
			return Op(op), true
		}
	}
	return OpInvalid, false
}

func unknownOp(s string) error {
	return fmt.Errorf("cdfg: unknown operation mnemonic %q", s)
}

// IsComputational reports whether the node performs datapath work, as
// opposed to being a graph boundary (input/output/const) or a register
// (delay). Only computational nodes are scheduled into control steps and
// considered for watermark constraint encoding.
func (o Op) IsComputational() bool {
	switch o {
	case OpInput, OpOutput, OpConst, OpDelay:
		return false
	}
	return o.Valid()
}

// AllOps lists every valid operation kind in identifier order. It is used
// by property-based tests and by the C3 ordering criterion's functionality
// sums.
func AllOps() []Op {
	ops := make([]Op, 0, int(opSentinel)-1)
	for o := OpInput; o < opSentinel; o++ {
		ops = append(ops, o)
	}
	return ops
}
