package core

import "fmt"

// DynRef identifies a dynamic memory operation by the sequence number of
// the block it belongs to and its load/store ID within the block.  Block
// sequence numbers count committed blocks from zero, so a reference names
// the same operation in the emulator and in any correct simulator run.
// NoDynRef means "none".
type DynRef struct {
	Seq  int64
	LSID int8
}

// NoDynRef is the absent reference.
var NoDynRef = DynRef{Seq: -1}

// Valid reports whether the reference names a real operation.
func (r DynRef) Valid() bool { return r.Seq >= 0 }

// Less reports whether r is older than o in memory order: block sequence
// first, then LSID.
func (r DynRef) Less(o DynRef) bool {
	if r.Seq != o.Seq {
		return r.Seq < o.Seq
	}
	return r.LSID < o.LSID
}

// String renders the reference for diagnostics.
func (r DynRef) String() string { return fmt.Sprintf("b%d.ls%d", r.Seq, r.LSID) }
