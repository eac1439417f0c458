package lsq

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/predictor"
)

func benchQueue(b *testing.B, policy core.IssuePolicy) (*Queue, *mem.Memory) {
	b.Helper()
	m := mem.New()
	h, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		b.Fatal(err)
	}
	return New(Config{Policy: policy}, m, h, &core.TagSource{}, nil, nil), m
}

// BenchmarkForwardingScan measures byte-wise reconstruction against a
// full window (8 blocks × 32 memory ops): the load's word chain in the
// store index holds two stores, and the youngest covers it.
func BenchmarkForwardingScan(b *testing.B) {
	q, _ := benchQueue(b, core.IssueAggressive)
	ops := make([]OpInfo, 32)
	for i := range ops {
		ops[i] = OpInfo{LSID: int8(i), IsStore: i%2 == 0, Size: 8}
	}
	for seq := int64(0); seq < 8; seq++ {
		q.RegisterBlock(seq, ops)
		for i := 0; i < 32; i += 2 {
			q.StoreUpdate(core.DynRef{Seq: seq, LSID: int8(i)}, uint64(0x1000+8*((seq*16+int64(i))%64)), seq, 0, false, false)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.reconstruct(core.DynRef{Seq: 7, LSID: 31}, 0x1000, 8)
	}
}

// BenchmarkViolationCheck measures the younger-load re-check a store
// update performs when it violates: 8 blocks of 31 issued loads over 8
// words, the store's word among them.
func BenchmarkViolationCheck(b *testing.B) {
	q, _ := benchQueue(b, core.IssueAggressive)
	ops := make([]OpInfo, 32)
	for i := range ops {
		ops[i] = OpInfo{LSID: int8(i), IsStore: i == 0, Size: 8}
	}
	for seq := int64(0); seq < 8; seq++ {
		q.RegisterBlock(seq, ops)
		for i := 1; i < 32; i++ {
			q.LoadTry(0, core.DynRef{Seq: seq, LSID: int8(i)}, uint64(0x1000+8*int64(i%8)), 0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternating value prevents silent-store short-circuits from
		// making the measurement trivial.
		q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x1000, int64(i&1), 0, false, false)
	}
}

// BenchmarkCertifyScan measures a certification scan that yields nothing
// because the commit wave has not caught up, in a 32-block window: the
// head block holds 31 address-final, data-pending stores and then one store
// whose address is not final, and every younger block holds 31 candidate
// loads behind it.  The first scan parks every candidate on that barrier
// store; later scans, like the one a store commit triggers, find nothing
// woken, so ns/op does not depend on how many candidates wait.
func BenchmarkCertifyScan(b *testing.B) {
	const blocks = 32
	q, _ := benchQueue(b, core.IssueAggressive)
	stores := make([]OpInfo, 32)
	for i := range stores {
		stores[i] = OpInfo{LSID: int8(i), IsStore: true, Size: 8}
	}
	q.RegisterBlock(0, stores)
	for i := 0; i < 31; i++ {
		// Address committed, data pending: stays an alias candidate.
		q.StoreUpdate(core.DynRef{Seq: 0, LSID: int8(i)}, uint64(0x1000+8*i), 1, 0, true, false)
	}
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 31}, 0x8000, 1, 0, false, false) // address never final
	mixed := make([]OpInfo, 32)
	for i := range mixed {
		mixed[i] = OpInfo{LSID: int8(i), IsStore: i == 0, Size: 8}
	}
	for seq := int64(1); seq < blocks; seq++ {
		q.RegisterBlock(seq, mixed)
		for i := 1; i < 32; i++ {
			k := core.DynRef{Seq: seq, LSID: int8(i)}
			q.LoadTry(0, k, uint64(0x9000+8*(32*seq+int64(i))), 0)
			q.LoadInputsCommitted(k)
		}
	}
	buf := make([]CertifiedLoad, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.certDirty = true // as a store commit would
		buf = q.TakeCertifiable(buf[:0])
		if len(buf) != 0 {
			b.Fatal("no load should certify past the pending store")
		}
	}
}

// BenchmarkAliasSearch measures a certification scan that certifies one
// load behind a full window of address-final, data-pending stores: every
// store lands on the pending list, the load's address words hit the
// filter, and each store must be proven non-overlapping address by
// address.
func BenchmarkAliasSearch(b *testing.B) {
	q, _ := benchQueue(b, core.IssueAggressive)
	ops := make([]OpInfo, 32)
	for i := range ops {
		ops[i] = OpInfo{LSID: int8(i), IsStore: i < 31, Size: 8}
	}
	for seq := int64(0); seq < 8; seq++ {
		q.RegisterBlock(seq, ops)
		for i := 0; i < 31; i++ {
			q.StoreUpdate(core.DynRef{Seq: seq, LSID: int8(i)}, uint64(0x1000+8*(seq*32+int64(i))), 1, 0, true, false)
		}
	}
	load := core.DynRef{Seq: 7, LSID: 31}
	q.LoadTry(0, load, 0x9000, 0)
	q.LoadInputsCommitted(load)
	s, op := q.opSlot(load)
	buf := make([]CertifiedLoad, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = q.TakeCertifiable(buf[:0])
		if len(buf) != 1 {
			b.Fatal("disjoint load should certify")
		}
		// Re-arm the candidate for the next iteration.
		q.certified[s].Clear(op)
		q.nCand++
		q.wakeCand(load, s, op)
		q.certDirty = true
	}
}

// BenchmarkLoadIssue measures the end-to-end load path (policy check,
// reconstruction, cache timing).
func BenchmarkLoadIssue(b *testing.B) {
	q, m := benchQueue(b, core.IssueAggressive)
	m.Write(0x2000, 7, 8)
	ops := make([]OpInfo, 1)
	ops[0] = OpInfo{LSID: 0, Size: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(i)
		q.RegisterBlock(seq, ops)
		q.LoadTry(int64(i), core.DynRef{Seq: seq, LSID: 0}, 0x2000, 0)
		q.Drain(seq)
	}
}

// BenchmarkStoreRecheck measures a store update whose violation re-check
// finds nothing: the store sits in the oldest block and every younger
// block holds 31 issued loads at addresses disjoint from it, so the load
// word index holds no load under the store's word.  ns/op should not grow
// from the 8-block window to the 32-block one.
func BenchmarkStoreRecheck(b *testing.B) {
	for _, blocks := range []int{8, 32} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			q, _ := benchQueue(b, core.IssueAggressive)
			ops := make([]OpInfo, 32)
			for i := range ops {
				ops[i] = OpInfo{LSID: int8(i), IsStore: i == 0, Size: 8}
			}
			for seq := int64(0); seq < int64(blocks); seq++ {
				q.RegisterBlock(seq, ops)
				for i := 1; i < 32; i++ {
					// Words 8..38 of each 512-byte page: never word 0.
					q.LoadTry(0, core.DynRef{Seq: seq, LSID: int8(i)}, uint64(0x10000+0x200*seq+8*int64(i+7)), 0)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x1000, int64(i&1), 0, false, false); len(vs) != 0 {
					b.Fatal("disjoint loads violated")
				}
			}
		})
	}
}

// BenchmarkReconstructMiss measures forwarding for a load no store covers:
// the load sits in the youngest block behind a window of executed stores
// at other addresses (and other address words), so the store index holds
// nothing under the load's word and the value comes from memory.  ns/op
// should not grow from the 8-block window to the 32-block one.
func BenchmarkReconstructMiss(b *testing.B) {
	for _, blocks := range []int{8, 32} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			q, _ := benchQueue(b, core.IssueAggressive)
			ops := make([]OpInfo, 32)
			for i := range ops {
				ops[i] = OpInfo{LSID: int8(i), IsStore: i < 31, Size: 8}
			}
			for seq := int64(0); seq < int64(blocks); seq++ {
				q.RegisterBlock(seq, ops)
				for i := 0; i < 31; i++ {
					q.StoreUpdate(core.DynRef{Seq: seq, LSID: int8(i)}, uint64(0x10000+0x200*seq+8*int64(i+8)), seq, 0, false, false)
				}
			}
			load := core.DynRef{Seq: int64(blocks - 1), LSID: 31}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, fwd := q.reconstruct(load, 0x1000, 8); fwd != 0 {
					b.Fatal("no store covers the load")
				}
			}
		})
	}
}

// BenchmarkTakeReadyParked measures a re-evaluation pass over a 32-block
// window of 992 loads parked by the store-set policy on stores that have
// not executed, with no store executing between passes: no parked load is
// woken, so the pass retries nothing, however many loads are parked.
func BenchmarkTakeReadyParked(b *testing.B) {
	const blocks = 32
	m := mem.New()
	h, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		b.Fatal(err)
	}
	q := New(Config{Policy: core.IssueStoreSet}, m, h, &core.TagSource{}, predictor.MustNew(predictor.DefaultConfig()), nil)
	ops := make([]OpInfo, 32)
	for i := range ops {
		ops[i] = OpInfo{LSID: int8(i), IsStore: i == 0, Size: 8, PC: predictor.PC(i)}
	}
	for seq := int64(0); seq < blocks; seq++ {
		q.RegisterBlock(seq, ops)
	}
	// Train every load PC into the store's set, then register a window
	// whose loads each wait on their block's unexecuted store.
	for i := 1; i < 32; i++ {
		q.ss.Violation(predictor.PC(i), 0)
	}
	q.SquashFrom(0)
	for seq := int64(0); seq < blocks; seq++ {
		q.RegisterBlock(seq, ops)
		for i := 1; i < 32; i++ {
			if r := q.LoadTry(0, core.DynRef{Seq: seq, LSID: int8(i)}, uint64(0x1000+8*i), 0); r.Reason != DeferPolicy {
				b.Fatalf("load not parked by the store-set policy: %+v", r)
			}
		}
	}
	buf := make([]ReadyLoad, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf = q.TakeReady(int64(i), buf[:0]); len(buf) != 0 {
			b.Fatal("no parked load can issue")
		}
	}
}
