package anonconsensus

import "context"

// Test-only exports for the external test package
// (anonconsensus_test), which cannot reach unexported identifiers.

// ViolationsForTest judges decisions against the paper's properties.
var ViolationsForTest = violations

// RunOnceForTest is the suites' one-shot entry: a fresh Node over transport
// with opts as the session options, one Run, and the node (and with it the
// transport) closed.
func RunOnceForTest(transport Transport, proposals []Value, opts ...Option) (*Result, error) {
	node, err := NewNode(transport, opts...)
	if err != nil {
		_ = transport.Close()
		return nil, err
	}
	defer node.Close()
	return node.Run(context.Background(), "once", proposals)
}
