package parsim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/assembly"
	"repro/internal/des"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// allocFront and freeFront wrap the memory tracker, keeping the per-proc
// live-allocation map that peak snapshots read in sync when
// Config.Snapshot is set.
func (s *sim) allocFront(q, node int, entries int64) {
	if s.cfg.Snapshot {
		s.procs[q].open[node] += entries
	}
	s.mem.AllocFront(q, entries)
}

func (s *sim) freeFront(q, node int, entries int64) {
	if s.cfg.Snapshot {
		if v := s.procs[q].open[node] - entries; v > 0 {
			s.procs[q].open[node] = v
		} else {
			delete(s.procs[q].open, node)
		}
	}
	s.mem.FreeFront(q, entries)
}

// snapshot describes processor q's live front allocations, largest first
// (stored in PeakNote when Config.Snapshot is on).
func (s *sim) snapshot(q int) string {
	type ent struct {
		node int
		e    int64
	}
	var es []ent
	for n, e := range s.procs[q].open {
		es = append(es, ent{n, e})
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].e != es[b].e {
			return es[a].e > es[b].e
		}
		return es[a].node < es[b].node
	})
	var b strings.Builder
	for k, e := range es {
		if k >= 8 {
			fmt.Fprintf(&b, " +%d more", len(es)-k)
			break
		}
		nd := &s.tree.Nodes[e.node]
		owner := "slave"
		if s.mp.Proc[e.node] == q {
			owner = "owner"
		}
		fmt.Fprintf(&b, "%s n%d[%v f=%d p=%d]=%d ",
			owner, e.node, s.mp.Types[e.node], nd.NFront(), nd.NPiv(), e.e)
	}
	fmt.Fprintf(&b, "| stack=%d", s.mem.Procs[q].Stack)
	return b.String()
}

func (s *sim) flopDur(fl int64) des.Time {
	return des.Time(float64(fl) / s.cfg.Params.FlopRate * 1e9)
}

func (s *sim) asmDur(ops int64) des.Time {
	return des.Time(float64(ops) / s.cfg.Params.AsmRate * 1e9)
}

// metricFor builds the slave-selection metric of view v, honoring the
// Section 5.1 toggles.
func (s *sim) metricFor(v *sched.View) func(r int) int64 {
	st := s.cfg.Strategy
	return func(r int) int64 {
		return v.Metric(r, st.UseSubtreeInfo, st.UsePrediction)
	}
}

// execMaster runs a task from q's pool: a type-1 node, the master part of a
// type-2 node, or the coordination of the type-3 root.
func (s *sim) execMaster(q, node int) {
	ps := &s.procs[q]
	ps.busy = true
	s.nodes[node].started = true
	s.setSubtree(q, s.mp.Subtree[node])

	switch s.mp.Types[node] {
	case assembly.Type2:
		if s.tree.Nodes[node].NCB() > 0 && s.mp.P > 1 {
			s.execType2Master(q, node)
			return
		}
		fallthrough // degenerate type 2 (empty CB): behave as type 1
	case assembly.Type1:
		s.execType1(q, node)
	case assembly.Type3:
		s.execType3Coord(q, node)
	}
}

// execType1 processes a whole front on one processor.
func (s *sim) execType1(q, node int) {
	s.allocFront(q, node, s.frontEnt[node])
	s.memDelta(q, s.frontEnt[node])
	asm := s.asmDur(s.asmOps[node])
	s.consumeChildCBs(q, node, asm)
	s.eng.After(asm+s.flopDur(s.elimFlops[node]), func() {
		s.freeFront(q, node, s.frontEnt[node])
		s.memDelta(q, -s.frontEnt[node])
		s.mem.AddFactors(q, s.factorEnt[node])
		s.routeCB(q, node, s.cbEnt[node])
		s.completeNode(q, node)
		s.procs[q].busy = false
		s.tryStart(q)
	})
}

// execType2Master selects slaves, distributes the CB rows, and runs the
// master segment (assembly + pivot-block elimination).
func (s *sim) execType2Master(q, node int) {
	nd := &s.tree.Nodes[node]
	ncb := nd.NCB()
	nfront := nd.NFront()
	cands := make([]int, 0, s.mp.P-1)
	for r := 0; r < s.mp.P; r++ {
		if r != q {
			cands = append(cands, r)
		}
	}
	s.slaveSelections++
	var allocs []sched.Allocation
	v := s.viewOf(q)
	switch {
	case s.cfg.Strategy.HybridSlaveSelection:
		allocs = sched.SelectSlavesHybrid(cands, s.metricFor(v), v.Load[q],
			v.Load, nfront, ncb, s.mem.MaxActivePeak())
	case s.cfg.Strategy.MemorySlaveSelection:
		allocs = sched.SelectSlavesMemory(cands, s.metricFor(v), nfront, ncb,
			s.mem.MaxActivePeak())
	default:
		allocs = sched.SelectSlavesWorkload(cands, v.Load[q], v.Load,
			ncb, s.masterFl[node], s.rowFlops[node])
	}
	// Per-row cost model of the 1D blocking (Figure 3): uniform rows for
	// unsymmetric fronts, triangular rows for symmetric ones (CB row t is
	// t+1 entries long). areaPrefix(t) = slave entries of the first t CB
	// rows; factor and CB-piece prefixes follow the same blocks, and
	// elimination flops are distributed proportionally to the area.
	f64, p64, c64 := int64(nfront), int64(nd.NPiv()), int64(ncb)
	var areaPrefix, factPrefix, cbPrefix func(t int) int64
	if s.tree.Kind == sparse.Symmetric {
		areaPrefix = func(t int) int64 { t64 := int64(t); return t64 * (t64 + 1) / 2 }
		factPrefix = func(t int) int64 { return 0 }
		cbPrefix = areaPrefix
	} else {
		areaPrefix = func(t int) int64 { return int64(t) * f64 }
		factPrefix = func(t int) int64 { return int64(t) * p64 }
		cbPrefix = func(t int) int64 { return int64(t) * (f64 - p64) }
	}
	// The workload baseline balances *work* between the slave subtasks
	// ("the blocking ... is irregular for the symmetric case, in order to
	// balance the work"); Algorithm 1's row counts are memory-driven and
	// stay as selected ("far more irregular", Section 4).
	if !s.usesMemoryViews() && s.tree.Kind == sparse.Symmetric {
		allocs = sched.RebalanceRows(allocs, ncb, areaPrefix)
	}
	st := &s.nodes[node]
	st.slavesLeft = len(allocs)

	// Exact cumulative shares so that freed / pushed quantities sum to the
	// model totals regardless of rounding.
	slaveFlops := c64 * s.rowFlops[node]
	areaTotal := areaPrefix(ncb)
	cum := 0
	var flPrev int64
	assign := msgAssign{}
	for _, al := range allocs {
		lo := cum
		cum += al.Rows
		var flCur int64
		if areaTotal > 0 {
			flCur = slaveFlops * areaPrefix(cum) / areaTotal
		}
		t := msgSlaveTask{
			node: node, rows: al.Rows,
			area:    areaPrefix(cum) - areaPrefix(lo),
			fact:    factPrefix(cum) - factPrefix(lo),
			cbPiece: cbPrefix(cum) - cbPrefix(lo),
			flops:   flCur - flPrev,
		}
		flPrev = flCur
		assign.procs = append(assign.procs, al.Proc)
		assign.mem = append(assign.mem, t.area)
		assign.load = append(assign.load, t.flops)
		// Task data: the slave's rows of the assembled front.
		s.world.Send(q, al.Proc, t.area, t)
	}
	// Publish the selection: update the master's own view immediately and
	// tell everyone else which slaves just gained memory and work, so that
	// concurrent masters do not choose the same processors off stale views.
	for k, r := range assign.procs {
		if s.usesMemoryViews() {
			s.procs[q].view.AddMem(r, assign.mem[k])
		}
		s.procs[q].view.AddLoad(r, assign.load[k])
	}
	s.world.Broadcast(q, 0, assign)

	s.allocFront(q, node, s.masterEnt[node])
	s.memDelta(q, s.masterEnt[node])
	asm := s.asmDur(s.asmOps[node])
	s.consumeChildCBs(q, node, asm)
	s.eng.After(asm+s.flopDur(s.masterFl[node]), func() {
		st.masterDone = true
		s.procs[q].busy = false
		s.maybeCompleteType2(q, node)
		s.tryStart(q)
	})
}

// maybeCompleteType2 finishes a type-2 node on the master once the master
// segment and all slave pieces are done.
func (s *sim) maybeCompleteType2(q, node int) {
	st := &s.nodes[node]
	if !st.masterDone || st.slavesLeft > 0 || st.completed {
		return
	}
	s.freeFront(q, node, s.masterEnt[node])
	s.memDelta(q, -s.masterEnt[node])
	s.mem.AddFactors(q, s.masterEnt[node])
	s.completeNode(q, node)
}

// execSlave runs one slave row block (already allocated at receipt).
func (s *sim) execSlave(q int, t slaveTask) {
	s.procs[q].busy = true
	s.eng.After(s.flopDur(t.flops), func() {
		s.freeFront(q, t.node, t.area)
		s.memDelta(q, -t.area)
		s.mem.AddFactors(q, t.fact)
		s.loadDelta(q, -t.flops)
		// Park the CB piece locally and notify the parent's owner.
		s.routeCB(q, t.node, t.cbPiece)
		// Tell the master this piece is done.
		if t.from == q {
			s.nodes[t.node].slavesLeft--
			s.maybeCompleteType2(q, t.node)
		} else {
			s.world.Send(q, t.from, 0, msgSlaveDone{node: t.node})
		}
		s.procs[q].busy = false
		s.tryStart(q)
	})
}

// execType3Coord runs the root-node coordination: assemble the children
// CBs, then fan the 2D block-cyclic factorization out to every processor.
func (s *sim) execType3Coord(q, node int) {
	asm := s.asmDur(s.asmOps[node])
	s.nodes[node].rootLeft = s.mp.P
	s.consumeChildCBs(q, node, asm)
	s.eng.After(asm, func() {
		s.world.Broadcast(q, s.frontEnt[node]/int64(s.mp.P), msgRootStart{node: node})
		// The coordinator's own share.
		share := s.frontEnt[node] / int64(s.mp.P)
		s.allocFront(q, node, share)
		s.memDelta(q, share)
		s.procs[q].rootQ = append(s.procs[q].rootQ, node)
		s.procs[q].busy = false
		s.tryStart(q)
	})
}

// execRootShare runs one processor's share of the type-3 root.
func (s *sim) execRootShare(q, node int) {
	s.procs[q].busy = true
	share := s.frontEnt[node] / int64(s.mp.P)
	dur := s.flopDur(s.elimFlops[node] / int64(s.mp.P))
	s.eng.After(dur, func() {
		s.freeFront(q, node, share)
		s.memDelta(q, -share)
		s.mem.AddFactors(q, s.factorEnt[node]/int64(s.mp.P))
		coord := s.mp.Proc[node]
		if coord == q {
			s.nodes[node].rootLeft--
			if s.nodes[node].rootLeft == 0 {
				s.completeNode(q, node)
			}
		} else {
			s.world.Send(q, coord, 0, msgRootDone{node: node})
		}
		s.procs[q].busy = false
		s.tryStart(q)
	})
}

// routeCB parks a completed contribution-block piece on the producer's
// stack and notifies the parent's owner. The data stays with the producer
// (as in MUMPS's asynchronous scheme) until the parent front consumes it —
// this is what lets the dynamic slave selection influence where active
// memory accumulates.
func (s *sim) routeCB(q, node int, entries int64) {
	parent := s.tree.Nodes[node].Parent
	if parent < 0 || entries == 0 {
		return
	}
	s.mem.PushCB(q, entries)
	s.memDelta(q, entries)
	powner := s.mp.Proc[parent]
	if powner == q {
		st := &s.nodes[parent]
		st.holders = append(st.holders, holder{proc: q, entries: entries})
		return
	}
	s.nodes[node].remotePieces++
	s.world.Send(q, powner, 0, msgCBHeld{node: node, entries: entries})
}

// consumeChildCBs releases, after the assembly phase, every CB piece parked
// for this node. Remote holders are told to release theirs; the message is
// charged with the piece size, modeling the extend-add data transfer.
func (s *sim) consumeChildCBs(q, node int, after des.Time) {
	st := &s.nodes[node]
	if len(st.holders) == 0 {
		return
	}
	holders := st.holders
	st.holders = nil
	s.eng.After(after, func() {
		for _, h := range holders {
			if h.proc == q {
				s.mem.PopCB(q, h.entries)
				s.memDelta(q, -h.entries)
			} else {
				s.world.Send(q, h.proc, h.entries, msgCBConsume{entries: h.entries})
			}
		}
	})
}

// completeNode marks a node done and notifies the parent's owner.
func (s *sim) completeNode(q, node int) {
	st := &s.nodes[node]
	if st.completed {
		return
	}
	st.completed = true
	s.done++
	if s.mp.Subtree[node] < 0 {
		s.loadDelta(q, -s.ownerFlops(node))
	} else {
		// Subtree work was pre-counted as a lump; decrement per node.
		s.loadDelta(q, -s.elimFlops[node])
	}
	// Leaving a subtree?
	if sub := s.mp.Subtree[node]; sub >= 0 && s.mp.SubRoot[sub] == node {
		s.setSubtree(q, -1)
	}
	parent := s.tree.Nodes[node].Parent
	if parent < 0 {
		return
	}
	powner := s.mp.Proc[parent]
	if powner == q {
		s.nodes[parent].childrenLeft--
		s.nodes[parent].piecesLeft += st.remotePieces
		s.markReady(parent)
	} else {
		s.world.Send(q, powner, 0, msgChildDone{node: node})
	}
}
