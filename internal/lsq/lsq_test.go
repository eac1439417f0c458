package lsq

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/predictor"
	"repro/internal/program"
)

func newQueue(t *testing.T, policy core.IssuePolicy, ss *predictor.StoreSet, oracle *emu.Oracle) (*Queue, *mem.Memory, *core.TagSource) {
	t.Helper()
	m := mem.New()
	h, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	tags := &core.TagSource{}
	q := New(Config{Policy: policy}, m, h, tags, ss, oracle)
	return q, m, tags
}

func regBlock(q *Queue, seq int64, ops ...OpInfo) {
	for i := range ops {
		ops[i].LSID = int8(i)
		if ops[i].Size == 0 {
			ops[i].Size = 8
		}
	}
	q.RegisterBlock(seq, ops)
}

func TestForwarding(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{})

	if vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 42, 0, false, false); len(vs) != 0 {
		t.Fatalf("unexpected violations %v", vs)
	}
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	if r.Deferred {
		t.Fatal("aggressive load deferred")
	}
	if r.Value != 42 {
		t.Fatalf("value = %d, want 42 (forwarded)", r.Value)
	}
	if q.Stats.Forwards != 1 {
		t.Errorf("Forwards = %d", q.Stats.Forwards)
	}
}

func TestLoadFromMemoryWhenNoStore(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 99, 8)
	regBlock(q, 0, OpInfo{})
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 0}, 0x100, 0)
	if r.Deferred || r.Value != 99 {
		t.Fatalf("r = %+v", r)
	}
	if r.Latency < 2 {
		t.Errorf("memory load latency %d too small", r.Latency)
	}
}

func TestViolationOnLateStore(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{})

	// Load issues aggressively before the older store's address is known.
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	if r.Value != 7 {
		t.Fatalf("speculative value = %d, want 7 (memory)", r.Value)
	}
	// The older store now executes to the same address: violation.
	vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 42, 0, false, false)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Load != (core.DynRef{Seq: 0, LSID: 1}) || vs[0].Value != 42 {
		t.Fatalf("violation = %+v", vs[0])
	}
	if vs[0].Tag == 0 {
		t.Error("violation must carry a fresh wave tag")
	}
	if q.Stats.Violations != 1 {
		t.Errorf("Violations = %d", q.Stats.Violations)
	}
}

func TestNoViolationWhenValueUnchanged(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 42, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{})
	q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	// Store writes the value the load already read: silent, no wave.
	vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 42, 0, false, false)
	if len(vs) != 0 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestYoungerStoreDoesNotViolateOlderLoad(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{}, OpInfo{IsStore: true})
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 0}, 0x100, 0)
	if r.Value != 7 {
		t.Fatal("load should read memory")
	}
	if vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 1}, 0x100, 42, 0, false, false); len(vs) != 0 {
		t.Fatalf("younger store violated older load: %v", vs)
	}
}

func TestByteWiseReconstruction(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 0x1111111111111111, 8)
	regBlock(q, 0, OpInfo{IsStore: true, Size: 1}, OpInfo{Size: 8})
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x102, 0xAB, 0, false, false)
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	want := int64(0x1111111111AB1111)
	if r.Value != want {
		t.Fatalf("value = %#x, want %#x", r.Value, want)
	}
	if q.Stats.PartialForwards != 1 {
		t.Errorf("PartialForwards = %d", q.Stats.PartialForwards)
	}
}

func TestYoungestStoreWinsForwarding(t *testing.T) {
	q, _, _ := newQueue(t, core.IssueAggressive, nil, nil)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{IsStore: true}, OpInfo{})
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 1, 0, false, false)
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 1}, 0x100, 2, 0, false, false)
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 2}, 0x100, 0)
	if r.Value != 2 {
		t.Fatalf("value = %d, want 2 (youngest older store)", r.Value)
	}
}

func TestNullifyRestoresMemoryValue(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{})
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 42, 0, false, false)
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	if r.Value != 42 {
		t.Fatal("load should forward 42")
	}
	// The store turns out to be predicated off: the load must revert.
	vs := q.StoreNullify(core.DynRef{Seq: 0, LSID: 0})
	if len(vs) != 1 || vs[0].Value != 7 {
		t.Fatalf("violations = %+v", vs)
	}
}

func TestStoreAddressChange(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	m.Write(0x200, 9, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{}, OpInfo{})
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 42, 0, false, false)
	rA := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0) // forwards 42
	rB := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 2}, 0x200, 0) // reads memory 9
	if rA.Value != 42 || rB.Value != 9 {
		t.Fatalf("rA=%d rB=%d", rA.Value, rB.Value)
	}
	// The store re-executes to a different address: both loads change.
	vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x200, 42, 0, false, false)
	if len(vs) != 2 {
		t.Fatalf("violations = %+v", vs)
	}
	got := map[core.DynRef]int64{}
	for _, v := range vs {
		got[v.Load] = v.Value
	}
	if got[core.DynRef{Seq: 0, LSID: 1}] != 7 || got[core.DynRef{Seq: 0, LSID: 2}] != 42 {
		t.Fatalf("corrections = %v", got)
	}
}

func TestConservativeDefersUntilStoresExecute(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueConservative, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{})
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	if !r.Deferred || r.Reason != DeferPolicy {
		t.Fatalf("r = %+v", r)
	}
	if got := q.TakeReady(1, nil); got != nil {
		t.Fatalf("load released early: %v", got)
	}
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x300, 1, 0, false, false) // disjoint address, but now executed
	ready := q.TakeReady(2, nil)
	if len(ready) != 1 || ready[0].Res.Value != 7 {
		t.Fatalf("ready = %+v", ready)
	}
	// Conservative never mis-speculates: no violations ever reported for
	// already-issued loads with all older stores executed.
	if q.Stats.Violations != 0 {
		t.Error("conservative policy produced violations")
	}
}

func TestConservativeWithinBlockOrder(t *testing.T) {
	q, _, _ := newQueue(t, core.IssueConservative, nil, nil)
	regBlock(q, 0, OpInfo{}, OpInfo{IsStore: true})
	// The load is OLDER than the store (lower LSID): it need not wait.
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 0}, 0x100, 0)
	if r.Deferred {
		t.Fatal("load older than all stores must issue")
	}
}

func TestStoreSetPolicyLearns(t *testing.T) {
	ss := predictor.MustNew(predictor.DefaultConfig())
	q, m, _ := newQueue(t, core.IssueStoreSet, ss, nil)
	m.Write(0x100, 7, 8)
	loadPC := predictor.MakePC(0, 5)
	storePC := predictor.MakePC(0, 3)
	regBlock(q, 0,
		OpInfo{IsStore: true, PC: storePC},
		OpInfo{PC: loadPC})

	// Untrained: the load issues immediately and gets violated.
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	if r.Deferred {
		t.Fatal("untrained store-set load deferred")
	}
	vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 42, 0, false, false)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	q.Drain(0)

	// Same static pair again: the load now waits for the store.
	regBlock(q, 1,
		OpInfo{IsStore: true, PC: storePC},
		OpInfo{PC: loadPC})
	r = q.LoadTry(0, core.DynRef{Seq: 1, LSID: 1}, 0x100, 0)
	if !r.Deferred {
		t.Fatal("trained store-set load did not defer")
	}
	q.StoreUpdate(core.DynRef{Seq: 1, LSID: 0}, 0x100, 43, 0, false, false)
	ready := q.TakeReady(1, nil)
	if len(ready) != 1 || ready[0].Res.Value != 43 {
		t.Fatalf("ready = %+v", ready)
	}
	if q.Stats.Violations != 1 {
		t.Errorf("violations = %d, want 1 (trained run is clean)", q.Stats.Violations)
	}
}

func TestOraclePolicy(t *testing.T) {
	// The emulator's table for one block: store 0 writes 0x100, load 1
	// reads it back and load 2 reads 0x200.
	b := program.New("oracle")
	blk := b.NewBlock("only")
	blk.Store(blk.Const(0x100), 0, blk.Const(1))
	x := blk.Load(blk.Const(0x100), 0)
	blk.Write(1, blk.Op(isa.OpAdd, x, blk.Load(blk.Const(0x200), 0)))
	blk.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := emu.Run(p, nil, mem.New(), emu.Options{CollectOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	q, m, _ := newQueue(t, core.IssueOracle, nil, golden.Oracle)
	m.Write(0x100, 7, 8)
	m.Write(0x200, 8, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{}, OpInfo{})

	// Load 1 truly depends on store 0: it must wait.
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	if !r.Deferred {
		t.Fatal("oracle-dependent load issued early")
	}
	// Load 2 has no dependence: it issues immediately.
	r2 := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 2}, 0x200, 0)
	if r2.Deferred || r2.Value != 8 {
		t.Fatalf("independent load: %+v", r2)
	}
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 42, 0, false, false)
	ready := q.TakeReady(1, nil)
	if len(ready) != 1 || ready[0].Res.Value != 42 {
		t.Fatalf("ready = %+v", ready)
	}
	if q.Stats.Violations != 0 {
		t.Error("oracle policy mis-speculated")
	}
}

func TestCertificationWaitsForOlderStores(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{})
	q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	q.LoadInputsCommitted(core.DynRef{Seq: 0, LSID: 1})
	if cs := q.TakeCertifiable(nil); len(cs) != 0 {
		t.Fatalf("certified before older store committed: %v", cs)
	}
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x300, 1, 0, false, false)
	if cs := q.TakeCertifiable(nil); len(cs) != 0 {
		t.Fatalf("certified before older store committed: %v", cs)
	}
	q.StoreCommitted(core.DynRef{Seq: 0, LSID: 0})
	cs := q.TakeCertifiable(nil)
	if len(cs) != 1 || cs[0].Value != 7 {
		t.Fatalf("certifiable = %+v", cs)
	}
	// Idempotent.
	if cs := q.TakeCertifiable(nil); len(cs) != 0 {
		t.Fatalf("double certification: %v", cs)
	}
}

func TestCertificationAcrossBlocks(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true})
	regBlock(q, 1, OpInfo{})
	q.LoadTry(0, core.DynRef{Seq: 1, LSID: 0}, 0x100, 0)
	q.LoadInputsCommitted(core.DynRef{Seq: 1, LSID: 0})
	if cs := q.TakeCertifiable(nil); len(cs) != 0 {
		t.Fatal("certified across uncommitted older block")
	}
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 5, 0, false, false)
	// The violation correction happened; now commit the store.
	q.StoreCommitted(core.DynRef{Seq: 0, LSID: 0})
	cs := q.TakeCertifiable(nil)
	if len(cs) != 1 || cs[0].Value != 5 {
		t.Fatalf("certifiable = %+v", cs)
	}
}

func TestDrainWritesMemoryInOrder(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{IsStore: true})
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 1}, 0x100, 2, 0, false, false) // younger executes first
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 1, 0, false, false)
	if n := q.Drain(0); n != 2 {
		t.Fatalf("drained %d stores", n)
	}
	if got := m.Read(0x100, 8); got != 2 {
		t.Fatalf("mem = %d, want 2 (LSID order)", got)
	}
	if q.Occupancy() != 0 {
		t.Error("entries remain after drain")
	}
}

func TestDrainSkipsNullStores(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	regBlock(q, 0, OpInfo{IsStore: true})
	q.StoreNullify(core.DynRef{Seq: 0, LSID: 0})
	if n := q.Drain(0); n != 0 {
		t.Fatalf("drained %d stores, want 0", n)
	}
	if got := m.Read(0x100, 8); got != 0 {
		t.Fatal("null store wrote memory")
	}
}

func TestSquashRemovesEntries(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true})
	regBlock(q, 1, OpInfo{})
	regBlock(q, 2, OpInfo{IsStore: true})
	q.LoadTry(0, core.DynRef{Seq: 1, LSID: 0}, 0x100, 0)
	q.SquashFrom(1)
	if q.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", q.Occupancy())
	}
	// Messages for squashed blocks are ignored.
	if vs := q.StoreUpdate(core.DynRef{Seq: 2, LSID: 0}, 0x100, 9, 0, false, false); vs != nil {
		t.Fatalf("a squashed block's store produced violations: %v", vs)
	}
	r := q.LoadTry(0, core.DynRef{Seq: 1, LSID: 0}, 0x100, 0)
	if !r.Deferred {
		t.Fatal("a squashed block's load message must be swallowed (deferred, no reply)")
	}
	// Refetch re-registers the blocks.
	regBlock(q, 1, OpInfo{})
	r = q.LoadTry(0, core.DynRef{Seq: 1, LSID: 0}, 0x100, 0)
	if r.Deferred || r.Value != 7 {
		t.Fatalf("refetched load: %+v", r)
	}
}

func TestChainedViolationThroughStoreData(t *testing.T) {
	// load A forwards from store S1; S1's data changes (its own producer
	// was violated); the dependent load must be re-corrected.
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{})
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 10, 0, false, false)
	r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	if r.Value != 10 {
		t.Fatal("load should forward 10")
	}
	vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 20, 0, false, false) // re-execution with new data
	if len(vs) != 1 || vs[0].Value != 20 {
		t.Fatalf("violations = %+v", vs)
	}
	if vs[0].Tag <= r.Tag {
		t.Error("correction tag must be newer than original reply tag")
	}
}

func TestFlushGuardForcesConservativeReplay(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{})

	// First attempt: aggressive load issues, store violates it, the machine
	// flushes and guards the load's dynamic key.
	q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	if vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 42, 0, false, false); len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	q.GuardLoad(core.DynRef{Seq: 0, LSID: 1})
	q.SquashFrom(0)

	// Replay: the guarded instance must now wait for the older store even
	// under the aggressive policy.
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{})
	r := q.LoadTry(1, core.DynRef{Seq: 0, LSID: 1}, 0x100, 0)
	if !r.Deferred {
		t.Fatal("guarded replay issued aggressively")
	}
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, 42, 0, false, false)
	ready := q.TakeReady(2, nil)
	if len(ready) != 1 || ready[0].Res.Value != 42 {
		t.Fatalf("ready = %+v", ready)
	}
	if q.Stats.GuardedLoads != 1 {
		t.Errorf("GuardedLoads = %d", q.Stats.GuardedLoads)
	}

	// Draining the block clears the guard.
	q.StoreCommitted(core.DynRef{Seq: 0, LSID: 0})
	q.Drain(0)
	regBlock(q, 1, OpInfo{IsStore: true}, OpInfo{})
	r = q.LoadTry(3, core.DynRef{Seq: 1, LSID: 1}, 0x100, 0)
	if r.Deferred {
		t.Fatal("fresh instance inherited an old guard")
	}
}

func TestPartialStoreCommitReleasesDisjointLoads(t *testing.T) {
	// A load older stores: one disjoint store with committed ADDRESS (data
	// pending) must not block certification; an overlapping one must.
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{IsStore: true}, OpInfo{})
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x900, 1, 0, true, false)  // disjoint, addr final
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 1}, 0x100, 42, 0, true, false) // overlapping, data pending
	q.LoadTry(0, core.DynRef{Seq: 0, LSID: 2}, 0x100, 0)
	q.LoadInputsCommitted(core.DynRef{Seq: 0, LSID: 2})
	if cs := q.TakeCertifiable(nil); len(cs) != 0 {
		t.Fatalf("certified past an overlapping uncommitted store: %v", cs)
	}
	// Commit the overlapping store's data: only then may the load certify,
	// without waiting for the disjoint store's data at all.
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 1}, 0x100, 42, 0, true, true)
	cs := q.TakeCertifiable(nil)
	if len(cs) != 1 || cs[0].Value != 42 {
		t.Fatalf("certifiable = %+v", cs)
	}
}

// newOneMSHRQueue builds an aggressive queue whose data cache has a single
// MSHR, so a second outstanding miss parks its load.
func newOneMSHRQueue(t *testing.T) *Queue {
	t.Helper()
	hc := cache.DefaultHierConfig()
	hc.MSHRs = 1
	h, err := cache.NewHierarchy(hc)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Policy: core.IssueAggressive}, mem.New(), h, &core.TagSource{}, nil, nil)
}

// TestReparkedLoadHoldsOneEntry: a load that parks, issues outside a pass
// and parks again holds one deferred-list entry, at its new park position:
// the next pass retries it once, after a load that parked in between.
func TestReparkedLoadHoldsOneEntry(t *testing.T) {
	q := newOneMSHRQueue(t)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{}, OpInfo{}, OpInfo{})
	st, x, a, b := core.DynRef{Seq: 0, LSID: 0}, core.DynRef{Seq: 0, LSID: 1}, core.DynRef{Seq: 0, LSID: 2}, core.DynRef{Seq: 0, LSID: 3}
	q.StoreUpdate(st, 0x500, 5, 0, false, false)
	if r := q.LoadTry(0, x, 0x1000, 0); r.Deferred {
		t.Fatalf("first miss %+v, want it issued", r)
	}
	for _, p := range []struct {
		k    core.DynRef
		addr uint64
	}{{a, 0x2000}, {b, 0x3000}} {
		if r := q.LoadTry(0, p.k, p.addr, 0); r.Reason != DeferMSHR {
			t.Fatalf("%s: %+v, want an MSHR deferral", p.k, r)
		}
	}
	// a re-executes at the store's address and issues outside a pass, then
	// re-executes at a new address and parks again.
	if r := q.LoadTry(0, a, 0x500, 0); r.Deferred || r.Value != 5 {
		t.Fatalf("forwarded re-execution %+v, want value 5", r)
	}
	if r := q.LoadTry(0, a, 0x4000, 0); r.Reason != DeferMSHR {
		t.Fatalf("second park %+v, want an MSHR deferral", r)
	}
	before := q.Work().ReadyVisits
	ready := q.TakeReady(10_000, nil) // the first miss has long returned
	if n := q.Work().ReadyVisits - before; n != 2 {
		t.Errorf("pass visited %d entries, want 2 (one per parked load)", n)
	}
	if len(ready) == 0 || ready[0].Load != b {
		t.Errorf("pass issued %+v, want %s first: %s parked again after it", ready, b, a)
	}
}

// TestDrainedParkedLoadIsNoReadyWork: a load parked when its block drains
// leaves the deferred list with the block, so it gives the next pass no
// work.
func TestDrainedParkedLoadIsNoReadyWork(t *testing.T) {
	q := newOneMSHRQueue(t)
	regBlock(q, 0, OpInfo{}, OpInfo{})
	q.LoadTry(0, core.DynRef{Seq: 0, LSID: 0}, 0x1000, 0)
	if r := q.LoadTry(0, core.DynRef{Seq: 0, LSID: 1}, 0x2000, 0); r.Reason != DeferMSHR {
		t.Fatalf("%+v, want an MSHR deferral", r)
	}
	if !q.HasReadyWork() {
		t.Fatal("a load parked on the MSHRs should be ready work")
	}
	q.Drain(0)
	if q.HasReadyWork() {
		t.Error("the drained block's parked load still counts as ready work")
	}
	before := q.Work().ReadyVisits
	if ready := q.TakeReady(1, nil); len(ready) != 0 || q.Work().ReadyVisits != before {
		t.Errorf("pass after the drain issued %+v after %d visits", ready, q.Work().ReadyVisits-before)
	}
}

// TestDeferredPolicyCountsParkDecisions: Stats.DeferredPolicy rises by one
// each time the issue policy parks a load, not once per pass the load
// spends parked: a conservative load parked behind two older stores is
// deferred on arrival and again when woken by the first, and passes in
// between, due to an unrelated younger store, count nothing.
func TestDeferredPolicyCountsParkDecisions(t *testing.T) {
	q, _, _ := newQueue(t, core.IssueConservative, nil, nil)
	regBlock(q, 0, OpInfo{IsStore: true}, OpInfo{IsStore: true}, OpInfo{})
	regBlock(q, 1, OpInfo{IsStore: true})
	s0, s1, ld := core.DynRef{Seq: 0, LSID: 0}, core.DynRef{Seq: 0, LSID: 1}, core.DynRef{Seq: 0, LSID: 2}
	want := int64(0)
	check := func(what string) {
		t.Helper()
		if q.Stats.DeferredPolicy != want {
			t.Fatalf("%s: DeferredPolicy %d, want %d", what, q.Stats.DeferredPolicy, want)
		}
	}
	if r := q.LoadTry(0, ld, 0x100, 0); r.Reason != DeferPolicy {
		t.Fatalf("%+v, want a policy deferral", r)
	}
	want++
	check("parked on arrival")
	q.StoreUpdate(core.DynRef{Seq: 1, LSID: 0}, 0x900, 1, 0, false, false)
	for now := int64(1); now <= 3; now++ {
		q.TakeReady(now, nil)
	}
	check("passes while it waits")
	q.StoreUpdate(s0, 0x200, 1, 0, false, false)
	if ready := q.TakeReady(4, nil); len(ready) != 0 {
		t.Fatalf("woken early, issued %+v", ready)
	}
	want++
	check("deferred again on the second store")
	q.StoreUpdate(s1, 0x300, 1, 0, false, false)
	if ready := q.TakeReady(5, nil); len(ready) != 1 {
		t.Fatalf("woken by the last older store, issued %+v", ready)
	}
	check("issued")
}
