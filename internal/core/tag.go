// Package core implements the primitives of the distributed selective
// re-execution (DSRE) protocol from Desikan et al., ASPLOS 2004:
//
//   - wave tags, which order speculative versions of a value so that
//     multiple speculative waves can traverse the dataflow graph at once;
//   - operand slots with the newest-wins delivery rule that makes an
//     instruction re-fire when a newer speculative value arrives;
//   - commit tokens, the commit wave that trails the speculative waves and
//     certifies values as final.
//
// The cycle simulator in internal/sim glues these primitives to tiles, the
// operand network and the load/store queue.  Wave accounting, which
// attributes re-executed instructions to the mis-speculation that
// triggered them (evaluation figure E8), is the per-wave table of the
// violation audit in internal/account.
package core

// Tag is a wave tag.  Tag zero is the initial (first-issue) wave; every
// mis-speculation recovery allocates a fresh, strictly larger tag from a
// TagSource, and instruction outputs carry the maximum of their input tags.
// A larger tag therefore always denotes a newer speculative version.
type Tag uint64

// TagSource allocates wave tags.  The zero value is ready to use.
type TagSource struct {
	last Tag
}

// Next returns a fresh tag, strictly larger than every tag allocated so far
// (and, because outputs only max over inputs, larger than every tag in
// flight).
func (s *TagSource) Next() Tag {
	s.last++
	return s.last
}

// Last returns the most recently allocated tag.
func (s *TagSource) Last() Tag { return s.last }

// MaxTag returns the larger of two tags.
func MaxTag(a, b Tag) Tag {
	if a > b {
		return a
	}
	return b
}

// RecoveryScheme selects how the machine recovers from a load-store
// dependence mis-speculation.
type RecoveryScheme int

// Recovery schemes.
const (
	// RecoverFlush squashes the violating load's block and every younger
	// block, then refetches — the conventional pipeline-flush baseline.
	RecoverFlush RecoveryScheme = iota
	// RecoverDSRE injects the corrected load value with a fresh wave tag
	// and lets it propagate selectively through the dataflow graph.
	RecoverDSRE
)

// String names the scheme.
func (r RecoveryScheme) String() string {
	switch r {
	case RecoverFlush:
		return "flush"
	case RecoverDSRE:
		return "dsre"
	}
	return "unknown"
}

// IssuePolicy selects when loads are allowed to issue relative to older
// stores — the dependence predictors the paper compares.
type IssuePolicy int

// Issue policies.
const (
	// IssueConservative defers a load until every older store in the window
	// has executed (all addresses known); it never mis-speculates.
	IssueConservative IssuePolicy = iota
	// IssueAggressive issues a load as soon as its address is ready.
	IssueAggressive
	// IssueStoreSet consults a store-set predictor (Chrysos & Emer): loads
	// predicted dependent wait for their predicted store.
	IssueStoreSet
	// IssueOracle waits exactly for the load's true conflicting store, as
	// identified by a perfect oracle (an emulator pre-pass).
	IssueOracle
)

// String names the policy.
func (p IssuePolicy) String() string {
	switch p {
	case IssueConservative:
		return "conservative"
	case IssueAggressive:
		return "aggressive"
	case IssueStoreSet:
		return "storeset"
	case IssueOracle:
		return "oracle"
	}
	return "unknown"
}
