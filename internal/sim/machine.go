package sim

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/trace"
)

// aluJob is one execution in flight on a tile's (pipelined) ALU.
type aluJob struct {
	completeAt int64
	frame      int32
	gen        uint32
	seq        int64
	idx        int
}

// tileState is one execution tile: per-block ready bitmaps feeding a
// pipelined ALU.  Readiness is a ring of 128-bit instruction masks indexed
// by block sequence (modulo the ring size, which covers the frame count),
// plus a ring bitset naming the occupied slots; pick-next is "first live
// block slot at or after the window base, then lowest set instruction bit"
// — a pair of priority-encoder queries instead of an associative scan.
//
// Invariant: every set bit names a live (in-window) block.  Squash and
// commit eagerly clear a dying block's bits, dropping all its entries at
// once, so the masks never hold dangling entries and seq→slot indexing
// stays collision-free.
type tileState struct {
	node int
	// readyBlocks flags ring slots (seq & ringMask) of blocks with at least
	// one ready instruction here; ready[slot] is that block's mask.
	readyBlocks bitset.Ring
	ready       []bitset.Mask128
	// readyCount is the number of set bits across ready.
	readyCount int
	busy       []aluJob
}

// dequeueReady pops the tile's oldest ready instruction (lowest block seq,
// then lowest instruction index).  windowBase is the oldest in-flight
// block's sequence; ringMask is the tile ring's index mask.  ok is false
// when the tile has nothing queued.  Both the dense and event-driven paths
// issue through this one helper.
func (t *tileState) dequeueReady(windowBase int64, ringMask int) (seq int64, idx int, ok bool) {
	if t.readyCount == 0 {
		return 0, 0, false
	}
	base := int(windowBase) & ringMask
	slot := t.readyBlocks.FirstFrom(base)
	m := &t.ready[slot]
	idx = m.Min()
	m.Clear(idx)
	if m.Empty() {
		t.readyBlocks.Clear(slot)
	}
	t.readyCount--
	return windowBase + int64((slot-base)&ringMask), idx, true
}

// unready drops a reclaimed entry, instruction idx of the block in ring
// slot `slot`, from the tile's ready mask.  It costs no issue slot.
func (t *tileState) unready(slot, idx int) {
	m := &t.ready[slot]
	m.Clear(idx)
	if m.Empty() {
		t.readyBlocks.Clear(slot)
	}
	t.readyCount--
}

// pendingFetch is the block fetch in progress.
type pendingFetch struct {
	active    bool
	seq       int64
	blockID   int
	readyAt   int64
	startedAt int64 // cycle the fetch issued, for the fetch stage span
}

type injection struct {
	src, dst int
	msg      message
}

// Machine is the simulated processor, configured for one program run.
type Machine struct {
	cfg  Config
	prog *isa.Program
	// dense steps every tile every cycle and never fast-forwards: the
	// reference the event-driven path is tested against (tests set it).
	// The mesh has no dense path; its reference lives in internal/noc's
	// tests.
	dense bool

	arch [isa.NumRegs]int64
	mem  *mem.Memory
	hier *cache.Hierarchy
	net  *noc.Network[message]
	q    *lsq.Queue
	tags core.TagSource
	ss   *predictor.StoreSet

	bpred nextBlockPred
	vp    *predictor.StrideValue // load-value predictor (ValuePredict)

	// memIdx[blockID][lsid] = instruction index, for LSQ-side broadcasts.
	memIdx [][]int
	// needs[blockID][instIdx] is the instruction's operand-need mask (see
	// needMask), decoded once here; mapped blocks share their block's row.
	needs [][]uint8
	// regReads[blockID][reg] is the block's read slot for register reg, or
	// -1 (see readSlots); mapped blocks share their block's row.
	regReads [][]int8
	// regNodes[reg] is register reg's bank tile; memNodes[bank] is D-tile
	// port bank's node, with the bank count already clamped to the grid.
	regNodes [isa.NumRegs]int
	memNodes []int
	// placement[blockID][instIdx] = execution tile.
	placement [][]int

	window    []*blockInst
	frameGens []uint32
	frameBusy []bool
	fetch     pendingFetch
	nextSeq   int64
	resumeID  int

	cycle int64
	// injq schedules structure-latency injections (cache replies, recovery
	// broadcasts) by cycle; FIFO within a cycle, so it reproduces the
	// retired delayed-map iteration bit for bit.
	injq  sched.Wheel[injection]
	tiles []tileState
	// tileRingMask indexes the tiles' ready rings: slot = seq & mask.  The
	// ring covers the frame count, so live blocks (whose seqs span less
	// than Frames) never collide.
	tileRingMask int
	// tileActive is a bitmask over tiles with resident work (non-empty
	// ready or busy queues); stepTiles visits only these, in ascending
	// order so issue arbitration matches the dense scan exactly.
	tileActive []uint64

	// lastFetch records what stepFetch did this cycle; during an idle-gap
	// fast-forward the same (state-stable) stall repeats every skipped
	// cycle (see tickIdleTail).
	lastFetch fetchAction
	// ffSkipped counts cycles the run loop fast-forwarded across provably
	// idle gaps (diagnostics only; never part of Stats).
	ffSkipped int64

	// Steady-state scratch, reused every cycle so the hot loop does not
	// allocate: LSQ take buffers, the map-time OpInfo staging slice, and
	// the retired-block pool.
	readyBuf  []lsq.ReadyLoad
	certBuf   []lsq.CertifiedLoad
	opsBuf    []lsq.OpInfo
	blockPool []*blockInst

	committed       int64
	lastCommitCycle int64
	done            bool
	finalTarget     int

	stats  Stats
	tracer *trace.Collector
	err    error // fatal protocol error detected during a handler

	// Cycle accounting + forensics (see account.go).
	acct acctState

	// Telemetry sampling (see sampler.go); sampleEvery == 0 means off, and
	// then sampleAt never comes due.
	sampleEvery int64
	sampleAt    int64
	sampleBase  sampleOrigin
	samples     []Sample
}

// SetTracer attaches an execution-event collector, which also receives the
// fetch/block/exec stage spans; nil detaches.
func (mc *Machine) SetTracer(c *trace.Collector) {
	mc.tracer = c
}

// New builds a machine for one run of prog from the given initial state.
// The oracle table (from an emulator pre-pass) is required only for
// IssueOracle; the perfect block trace only for PredPerfect.
func New(cfg Config, prog *isa.Program, regs *[isa.NumRegs]int64, m *mem.Memory, oracle *emu.Oracle, trace []int) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == core.IssueOracle && oracle == nil {
		return nil, fmt.Errorf("sim: oracle policy requires an oracle table")
	}
	hier, err := cache.NewHierarchy(cfg.Hier)
	if err != nil {
		return nil, err
	}
	bpred, err := newBlockPred(cfg.BlockPred, cfg.BlockPredBits, trace)
	if err != nil {
		return nil, err
	}
	mc := &Machine{
		cfg:       cfg,
		prog:      prog,
		mem:       m.Clone(),
		hier:      hier,
		bpred:     bpred,
		frameGens: make([]uint32, cfg.Frames),
		frameBusy: make([]bool, cfg.Frames),
		resumeID:  prog.Entry,
		acct:      newAcctState(cfg.Frames),
		sampleAt:  math.MaxInt64,
	}
	if regs != nil {
		mc.arch = *regs
	}

	mc.net, err = noc.New[message](cfg.netConfig(), mc.deliver)
	if err != nil {
		return nil, err
	}

	if cfg.Policy == core.IssueStoreSet {
		mc.ss, err = predictor.New(cfg.StoreSet)
		if err != nil {
			return nil, err
		}
	}
	mc.q = lsq.New(lsq.Config{
		Policy:           cfg.Policy,
		ForwardLatency:   cfg.ForwardLatency,
		ViolationLatency: cfg.ViolationLatency,
	}, mc.mem, hier, &mc.tags, mc.ss, oracle)

	mc.memIdx = make([][]int, len(prog.Blocks))
	mc.needs = make([][]uint8, len(prog.Blocks))
	mc.regReads = make([][]int8, len(prog.Blocks))
	for i, b := range prog.Blocks {
		mc.regReads[i] = readSlots(b)
		idx := make([]int, 0, isa.MaxMemOps)
		needs := make([]uint8, len(b.Insts))
		for j := range b.Insts {
			if b.Insts[j].Op.IsMem() {
				idx = append(idx, j)
			}
			needs[j] = needMask(&b.Insts[j])
		}
		mc.memIdx[i], mc.needs[i] = idx, needs
	}
	for reg := range mc.regNodes {
		mc.regNodes[reg] = mc.net.Node(1+reg%cfg.GridWidth, 0)
	}
	banks := min(max(cfg.DTileBanks, 1), cfg.GridHeight)
	mc.memNodes = make([]int, banks)
	for bank := range mc.memNodes {
		mc.memNodes[bank] = mc.net.Node(0, 1+bank)
	}

	nt := cfg.GridWidth * cfg.GridHeight
	mc.tiles = make([]tileState, nt)
	for i := range mc.tiles {
		mc.tiles[i].node = mc.execNode(i)
		mc.tiles[i].readyBlocks = bitset.NewRing(cfg.Frames)
		mc.tiles[i].ready = make([]bitset.Mask128, mc.tiles[i].readyBlocks.Size())
	}
	mc.tileRingMask = mc.tiles[0].readyBlocks.Size() - 1
	mc.tileActive = make([]uint64, (nt+63)/64)
	mc.placement, err = computePlacement(cfg.Placement, prog, nt)
	if err != nil {
		return nil, err
	}
	if cfg.ValuePredict {
		mc.vp = predictor.NewStrideValue()
	}
	return mc, nil
}

// Topology: column x=0 holds the global control tile (0,0) and the LSQ/data
// tile (0,1); row y=0 from x=1 holds register-file banks; the execution
// grid occupies x in [1, W], y in [1, H].

func (mc *Machine) ctrlNode() int { return mc.net.Node(0, 0) }

// memNode returns the D-tile port for an address: memory traffic is
// interleaved across the left mesh column by cache-line address.  The LSQ
// is logically unified; banking distributes its network ports (the TRIPS
// D-tile arrangement).
func (mc *Machine) memNode(addr uint64) int {
	return mc.memNodes[(addr>>6)%uint64(len(mc.memNodes))]
}

// regNode returns register reg's bank on the top row, interleaved by
// register number.
func (mc *Machine) regNode(reg uint8) int {
	return mc.regNodes[reg]
}

func (mc *Machine) execNode(tile int) int {
	return mc.net.Node(1+tile%mc.cfg.GridWidth, 1+tile/mc.cfg.GridWidth)
}

// instTile maps an instruction of a block to its execution tile, per the
// configured placement policy.
func (mc *Machine) instTile(blockID, idx int) int {
	return mc.placement[blockID][idx]
}

// blockAt returns the in-flight block with the given sequence, or nil.
func (mc *Machine) blockAt(seq int64) *blockInst {
	if len(mc.window) == 0 {
		return nil
	}
	first := mc.window[0].seq
	i := seq - first
	if i < 0 || i >= int64(len(mc.window)) {
		return nil
	}
	return mc.window[i]
}

// live reports whether a message's (frame, gen) still names a live block.
func (mc *Machine) live(m *message) *blockInst {
	b := mc.blockAt(m.seq)
	if b == nil || b.frame != m.frame || b.gen != m.gen {
		return nil
	}
	return b
}

// send injects a message now.  A negative src delivers locally at dst
// (the free-commit-token ablation path: 1-cycle latency, no bandwidth).
func (mc *Machine) send(src, dst int, m message) {
	if src < 0 {
		src = dst
	}
	mc.net.Send(mc.cycle, src, dst, m)
}

// sendAfter injects a message after a delay (modelling structure latency
// before the network, e.g. cache access time).
func (mc *Machine) sendAfter(delay int, src, dst int, m message) {
	if assertsEnabled && delay < 0 {
		mc.failAssert("negative injection delay %d at cycle %d (kind %d seq %d)", delay, mc.cycle, m.kind, m.seq)
	}
	if delay <= 0 {
		mc.send(src, dst, m)
		return
	}
	mc.injq.Push(mc.cycle+int64(delay), injection{src: src, dst: dst, msg: m})
}

// markTileActive flags a tile as holding resident work so stepTiles visits
// it.  The bit is cleared by stepTiles itself when both queues drain.
func (mc *Machine) markTileActive(tile int) {
	mc.tileActive[tile>>6] |= 1 << (uint(tile) & 63)
}

// resliceCleared returns s resized to n with every element zeroed, reusing
// the backing array when it is large enough.
func resliceCleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// takeBlock pops a recycled blockInst (or allocates one).  The caller fills
// every field; recycled backing arrays (insts, writes, readBind)
// keep their capacity so steady-state block turnover does not allocate.
func (mc *Machine) takeBlock() *blockInst {
	if len(mc.blockPool) == 0 {
		return &blockInst{}
	}
	b := mc.blockPool[len(mc.blockPool)-1]
	mc.blockPool[len(mc.blockPool)-1] = nil
	mc.blockPool = mc.blockPool[:len(mc.blockPool)-1]
	return b
}

// releaseBlock recycles a retired (committed or squashed) blockInst.  Any
// in-flight message naming it is rejected by the (frame, gen) liveness check
// before the pool can hand it out again, because gens only move forward.
func (mc *Machine) releaseBlock(b *blockInst) {
	mc.blockPool = append(mc.blockPool, b)
}

// fail records a fatal protocol error; the run loop surfaces it.
func (mc *Machine) fail(format string, args ...any) {
	if mc.err == nil {
		mc.err = fmt.Errorf(format, args...)
	}
}
