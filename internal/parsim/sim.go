package parsim

import (
	"fmt"
	"sort"

	"repro/internal/assembly"
	"repro/internal/des"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/vmpi"
)

type procState struct {
	rank         int
	pool         sched.Pool
	view         *sched.View
	slaveQ       []slaveTask
	rootQ        []int // pending type-3 share nodes
	busy         bool
	curSubtree   int
	subBase      int64 // active memory at entry of the current subtree
	lastIncoming int64
	lastSubtree  int64
	open         map[int]int64 // live front allocations by node (diagnostics)
}

type sim struct {
	cfg   Config
	tree  *assembly.Tree
	mp    *assembly.Mapping
	eng   *des.Engine
	world *vmpi.World
	mem   *memory.Tracker
	procs []procState
	nodes []nodeState

	// Precomputed per-node costs.
	elimFlops  []int64
	asmOps     []int64
	frontEnt   []int64
	masterEnt  []int64
	cbEnt      []int64
	factorEnt  []int64
	rowFlops   []int64 // type-2: elimination flops of one CB row
	masterFl   []int64 // type-2: master-segment flops
	childCBSum []int64 // sum of children CB entries (popped after assembly)

	taskInfo sched.TaskInfo // Algorithm 2's view of the nodes, built once

	booting         bool
	done            int
	slaveSelections int64
	alg2Deviations  int64
}

// Run simulates one factorization and returns the result.
func Run(cfg Config) (*Result, error) {
	res, _, err := simulate(cfg)
	return res, err
}

// simulate is Run, also returning the number of engine events processed.
func simulate(cfg Config) (*Result, int64, error) {
	if cfg.Tree == nil || cfg.Map == nil {
		return nil, 0, fmt.Errorf("parsim: nil tree or mapping")
	}
	if err := cfg.Map.Validate(cfg.Tree); err != nil {
		return nil, 0, err
	}
	if cfg.Params.FlopRate <= 0 || cfg.Params.AsmRate <= 0 {
		return nil, 0, fmt.Errorf("parsim: non-positive rates")
	}
	s := &sim{
		cfg:  cfg,
		tree: cfg.Tree,
		mp:   cfg.Map,
		eng:  des.New(),
	}
	p := cfg.Map.P
	s.world = vmpi.New(s.eng, p, cfg.Params.Comm)
	s.mem = memory.NewTracker(s.eng, p)
	s.procs = make([]procState, p)
	n := s.tree.Len()
	s.nodes = make([]nodeState, n)
	s.elimFlops = make([]int64, n)
	s.asmOps = make([]int64, n)
	s.frontEnt = make([]int64, n)
	s.masterEnt = make([]int64, n)
	s.cbEnt = make([]int64, n)
	s.factorEnt = make([]int64, n)
	s.rowFlops = make([]int64, n)
	s.masterFl = make([]int64, n)
	s.childCBSum = make([]int64, n)

	for i := 0; i < n; i++ {
		nd := &s.tree.Nodes[i]
		s.elimFlops[i] = assembly.EliminationFlops(nd, s.tree.Kind)
		s.frontEnt[i] = assembly.FrontEntries(nd, s.tree.Kind)
		s.masterEnt[i] = assembly.MasterEntries(nd, s.tree.Kind)
		s.cbEnt[i] = assembly.CBEntries(nd, s.tree.Kind)
		s.factorEnt[i] = assembly.FactorEntries(nd, s.tree.Kind)
		s.asmOps[i] = assembly.AssemblyFlops(s.tree, nd)
		for _, c := range nd.Children {
			s.childCBSum[i] += assembly.CBEntries(&s.tree.Nodes[c], s.tree.Kind)
		}
		s.nodes[i].childrenLeft = len(nd.Children)
		// Type-2 work split: one CB row costs the rank-updates of all
		// pivots; the master segment is the remainder.
		f, piv, ncb := int64(nd.NFront()), int64(nd.NPiv()), int64(nd.NCB())
		var rf int64
		for k := int64(0); k < piv; k++ {
			rf += 2 * (f - k - 1)
		}
		if s.tree.Kind == sparse.Symmetric {
			rf /= 2
		}
		s.rowFlops[i] = rf
		s.masterFl[i] = s.elimFlops[i] - ncb*rf
		if s.masterFl[i] < 0 {
			s.masterFl[i] = 0
		}
	}

	s.taskInfo = sched.TaskInfo{
		InSubtree: func(n int) bool { return s.mp.Subtree[n] >= 0 },
		MemCost:   s.memCostOnOwner,
	}
	for q := 0; q < p; q++ {
		s.procs[q] = procState{rank: q, view: sched.NewView(p), curSubtree: -1,
			open: map[int]int64{}}
		if cfg.Trace {
			s.mem.Procs[q].EnableTrace()
		}
		q := q
		if cfg.Snapshot {
			s.mem.SetSnapshot(q, func() string { return s.snapshot(q) })
		}
		s.world.Register(q, func(from int, payload any) { s.handle(q, from, payload) })
	}

	// Initial workload views: the cost of each processor's subtrees
	// (paper Section 3).
	for si, pr := range s.mp.SubProc {
		for q := 0; q < p; q++ {
			s.procs[q].view.AddLoad(pr, s.mp.SubFlops[si])
		}
	}

	// Initial pools: leaves pushed so that the first leaf a processor
	// should treat ends on top — depth-first with subtree leaves
	// contiguous. The default treatment order is postorder; with
	// SubtreePeakDescending each processor's subtrees are reordered by
	// decreasing sequential stack peak (treat the memory-heavy subtree
	// while the rest of the memory is still low). The booting flag keeps
	// processors from starting work until every pool is filled.
	s.booting = true
	leaves := s.initialLeafOrder()
	for k := len(leaves) - 1; k >= 0; k-- {
		s.markReady(leaves[k])
	}
	s.booting = false
	for q := 0; q < p; q++ {
		s.tryStart(q)
	}
	s.eng.Run()

	if s.done != n {
		return nil, 0, fmt.Errorf("parsim: deadlock — %d of %d nodes completed", s.done, n)
	}
	res := &Result{
		MaxActivePeak:   s.mem.MaxActivePeak(),
		MaxStackPeak:    s.mem.MaxStackPeak(),
		MaxTotalPeak:    s.mem.MaxTotalPeak(),
		AvgActivePeak:   s.mem.AvgActivePeak(),
		Makespan:        s.eng.Now(),
		TotalFactors:    s.mem.TotalFactors(),
		Messages:        s.world.Messages,
		Bytes:           s.world.Bytes,
		NodesDone:       s.done,
		SlaveSelections: s.slaveSelections,
		Alg2Deviations:  s.alg2Deviations,
	}
	for q := 0; q < p; q++ {
		res.PerProcPeak = append(res.PerProcPeak, s.mem.Procs[q].ActivePeak)
		if s.mem.Procs[q].ActivePeak == res.MaxActivePeak {
			res.PeakProc = q
			res.PeakStack = s.mem.Procs[q].PeakStack
			res.PeakFronts = s.mem.Procs[q].PeakFronts
			res.PeakTime = s.mem.Procs[q].PeakTime
			res.PeakNote = s.mem.Procs[q].PeakNote
		}
		if cfg.Trace {
			res.Traces = append(res.Traces, s.mem.Procs[q].Trace())
		}
	}
	// Invariants: all transient memory released.
	for q := 0; q < p; q++ {
		if a := s.mem.Procs[q].Active(); a != 0 {
			return nil, 0, fmt.Errorf("parsim: proc %d still holds %d entries", q, a)
		}
	}
	return res, s.eng.Processed(), nil
}

// initialLeafOrder returns the tree's leaves in global treatment order:
// postorder by default, or with each processor's subtrees reordered by
// decreasing stack peak (SubtreePeakDescending). Only the relative order
// of leaves on the *same* processor matters — pools are per-processor —
// so the reorder permutes whole subtree-leaf groups in place.
func (s *sim) initialLeafOrder() []int {
	var leaves []int
	for _, i := range s.tree.Postorder() {
		if len(s.tree.Nodes[i].Children) == 0 {
			leaves = append(leaves, i)
		}
	}
	if s.cfg.Strategy.SubtreeOrder != SubtreePeakDescending {
		return leaves
	}
	// Only the relative order of leaves on the same processor matters
	// (pools are per-processor), so sort each processor's leaf list by
	// decreasing subtree peak (stable, so leaves within one subtree stay
	// in postorder) and write it back into that processor's slots.
	// Leaves outside any subtree carry peak -1 and end last: they are
	// upper-tree work that depends on subtree results anyway.
	perProc := make(map[int][]int)
	for _, i := range leaves {
		perProc[s.mp.Proc[i]] = append(perProc[s.mp.Proc[i]], i)
	}
	peakOf := func(i int) int64 {
		if st := s.mp.Subtree[i]; st >= 0 {
			return s.mp.SubPeak[st]
		}
		return -1
	}
	for _, list := range perProc {
		sort.SliceStable(list, func(a, b int) bool {
			return peakOf(list[a]) > peakOf(list[b])
		})
	}
	out := make([]int, 0, len(leaves))
	used := make(map[int]int)
	for _, i := range leaves {
		q := s.mp.Proc[i]
		out = append(out, perProc[q][used[q]])
		used[q]++
	}
	return out
}

// markReady is called on the owner when a node has all children completed
// and all CB pieces present.
func (s *sim) markReady(i int) {
	st := &s.nodes[i]
	if st.pushed || st.childrenLeft > 0 || st.piecesLeft != 0 {
		return
	}
	st.pushed = true
	owner := s.mp.Proc[i]
	s.procs[owner].pool.Push(i)
	if s.mp.Subtree[i] < 0 {
		// Subtree work was pre-counted in the initial loads.
		s.loadDelta(owner, s.ownerFlops(i))
	}
	s.updateIncoming(owner)
	s.tryStart(owner)
}

// ownerFlops is the workload the owner itself executes for a node.
func (s *sim) ownerFlops(i int) int64 {
	switch s.mp.Types[i] {
	case assembly.Type2:
		return s.masterFl[i]
	case assembly.Type3:
		return s.elimFlops[i] / int64(s.mp.P)
	default:
		return s.elimFlops[i]
	}
}

// memCostOnOwner is the memory a task allocates on its owner at activation
// (the Algorithm 2 / prediction cost).
func (s *sim) memCostOnOwner(i int) int64 {
	switch s.mp.Types[i] {
	case assembly.Type2:
		return s.masterEnt[i]
	case assembly.Type3:
		return s.frontEnt[i] / int64(s.mp.P)
	default:
		return s.frontEnt[i]
	}
}

func (s *sim) tryStart(q int) {
	ps := &s.procs[q]
	if ps.busy || s.booting {
		return
	}
	// Priority 1: type-3 root shares (global synchronous phase).
	if len(ps.rootQ) > 0 {
		node := ps.rootQ[0]
		ps.rootQ = ps.rootQ[1:]
		s.execRootShare(q, node)
		return
	}
	// Priority 2: slave tasks, activated in receipt order.
	if len(ps.slaveQ) > 0 {
		t := ps.slaveQ[0]
		ps.slaveQ = ps.slaveQ[1:]
		s.execSlave(q, t)
		return
	}
	if ps.pool.Empty() {
		return
	}
	var node int
	if s.cfg.Strategy.MemoryTaskSelection {
		// Current memory "including peak of subtree" (Algorithm 2): while
		// inside a subtree the memory will still rise to the subtree's
		// peak above its entry level, so use whichever is higher.
		cur := s.mem.Procs[q].Active()
		if ps.curSubtree >= 0 {
			if proj := ps.subBase + s.mp.SubPeak[ps.curSubtree]; proj > cur {
				cur = proj
			}
		}
		// The reference is the *global* peak observed since the beginning
		// of the factorization: activating a task that keeps this
		// processor under it cannot raise the solver's peak. (Using the
		// processor's own peak instead makes the test so strict that the
		// pool constantly deviates from depth-first order, which the
		// paper warns "could tend to increase the number of branches of
		// the tree active simultaneously".)
		k := sched.SelectMemoryAware(&ps.pool, s.taskInfo, cur, s.mem.MaxActivePeak())
		if k != 0 {
			s.alg2Deviations++
		}
		node = ps.pool.PopAt(k)
	} else {
		node = ps.pool.PopTop()
	}
	s.updateIncoming(q)
	s.execMaster(q, node)
}

// ---- view broadcasts -------------------------------------------------

func (s *sim) loadDelta(q int, delta int64) {
	if delta == 0 {
		return
	}
	s.procs[q].view.AddLoad(q, delta)
	s.world.Broadcast(q, 0, msgLoadDelta{delta})
}

// usesMemoryViews reports whether remote memory views must be maintained
// (any slave-selection strategy that reads them).
func (s *sim) usesMemoryViews() bool {
	return s.cfg.Strategy.MemorySlaveSelection || s.cfg.Strategy.HybridSlaveSelection
}

func (s *sim) memDelta(q int, delta int64) {
	if delta == 0 {
		return
	}
	s.procs[q].view.AddMem(q, delta)
	if s.usesMemoryViews() {
		s.world.Broadcast(q, 0, msgMemDelta{delta})
	}
}

func (s *sim) updateIncoming(q int) {
	if !s.cfg.Strategy.UsePrediction {
		return
	}
	var max int64
	pool := &s.procs[q].pool
	for k := 0; k < pool.Len(); k++ {
		if c := s.memCostOnOwner(pool.At(k)); c > max {
			max = c
		}
	}
	if max == s.procs[q].lastIncoming {
		return
	}
	s.procs[q].lastIncoming = max
	s.procs[q].view.SetIncoming(q, max)
	s.world.Broadcast(q, 0, msgIncoming{max})
}

func (s *sim) setSubtree(q int, sub int) {
	ps := &s.procs[q]
	if ps.curSubtree == sub {
		return
	}
	ps.curSubtree = sub
	if sub >= 0 {
		ps.subBase = s.mem.Procs[q].Active()
	}
	if !s.cfg.Strategy.UseSubtreeInfo {
		return
	}
	// Broadcast the projected absolute level (entry memory + subtree
	// peak); see sched.View for why this is not the bare peak.
	var level int64
	if sub >= 0 {
		level = ps.subBase + s.mp.SubPeak[sub]
	}
	if level == ps.lastSubtree {
		return
	}
	ps.lastSubtree = level
	ps.view.SetSubtree(q, level)
	s.world.Broadcast(q, 0, msgSubtree{peak: level})
}

// ---- message handling ------------------------------------------------

func (s *sim) handle(q, from int, payload any) {
	switch m := payload.(type) {
	case msgChildDone:
		st := &s.nodes[m.node]
		parent := s.tree.Nodes[m.node].Parent
		s.nodes[parent].childrenLeft--
		s.nodes[parent].piecesLeft += st.remotePieces
		s.markReady(parent)
	case msgCBHeld:
		parent := s.tree.Nodes[m.node].Parent
		st := &s.nodes[parent]
		st.holders = append(st.holders, holder{proc: from, entries: m.entries})
		st.piecesLeft--
		s.markReady(parent)
	case msgCBConsume:
		s.mem.PopCB(q, m.entries)
		s.memDelta(q, -m.entries)
	case msgAssign:
		// A master announced its slave selection: fold the assigned memory
		// and work into this processor's view of the chosen slaves. The
		// view increments here pair with the decrements the slaves
		// broadcast themselves when they finish (execSlave); memory views
		// are only maintained under the memory strategy (as the
		// decrements are).
		for k, r := range m.procs {
			if s.usesMemoryViews() {
				s.procs[q].view.AddMem(r, m.mem[k])
			}
			s.procs[q].view.AddLoad(r, m.load[k])
		}
	case msgSlaveTask:
		// Activated on receipt: the row block is allocated immediately
		// (the paper: "slave tasks are activated as soon as they are
		// received on the slave side"). The view increment was already
		// published by the master's msgAssign broadcast.
		s.allocFront(q, m.node, m.area)
		s.procs[q].slaveQ = append(s.procs[q].slaveQ, slaveTask{
			node: m.node, rows: m.rows, from: from,
			area: m.area, fact: m.fact, cbPiece: m.cbPiece, flops: m.flops,
		})
		s.tryStart(q)
	case msgSlaveDone:
		st := &s.nodes[m.node]
		st.slavesLeft--
		s.maybeCompleteType2(q, m.node)
	case msgMemDelta:
		s.procs[q].view.AddMem(from, m.delta)
	case msgLoadDelta:
		s.procs[q].view.AddLoad(from, m.delta)
	case msgSubtree:
		s.procs[q].view.SetSubtree(from, m.peak)
	case msgIncoming:
		s.procs[q].view.SetIncoming(from, m.cost)
	case msgRootStart:
		share := s.frontEnt[m.node] / int64(s.mp.P)
		s.allocFront(q, m.node, share)
		s.memDelta(q, share)
		s.procs[q].rootQ = append(s.procs[q].rootQ, m.node)
		s.tryStart(q)
	case msgRootDone:
		st := &s.nodes[m.node]
		st.rootLeft--
		if st.rootLeft == 0 {
			s.completeNode(q, m.node)
		}
	default:
		panic(fmt.Sprintf("parsim: unknown message %T", payload))
	}
}
