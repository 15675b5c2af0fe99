// Package parsim simulates the distributed-memory multifrontal
// factorization of MUMPS on P virtual processors (discrete-event time),
// implementing the paper's scheduling machinery end to end:
//
//   - per-processor pools of ready tasks managed as stacks (Section 5.2),
//   - type-1 / type-2 / type-3 task state machines with 1D row blocking for
//     type-2 fronts (Section 3),
//   - dynamic slave selection: workload-based (the MUMPS baseline) or
//     memory-based Algorithm 1, optionally with the Section 5.1
//     subtree-peak and incoming-master-prediction publications,
//   - memory-aware task selection (Algorithm 2),
//   - message-based views of remote memory/workload with latency, which
//     reproduces the stale-view hazard of Figure 5. The memory and
//     workload deltas, subtree levels and incoming-master predictions are
//     published on a vmpi.Board and read when a master selects slaves,
//     not delivered as events; a read sees exactly what the delivered
//     messages would have told the reader by then.
//
// The simulator moves front *sizes* and flop counts, not numerical values:
// the paper's metrics (per-processor stack peaks, factorization time) are
// functions of scheduling decisions and the cost model only. The numeric
// kernel lives in internal/seqmf and shares the same assembly trees.
package parsim

import (
	"repro/internal/assembly"
	"repro/internal/des"
	"repro/internal/memory"
	"repro/internal/vmpi"
)

// Strategy selects the scheduling policies under test.
type Strategy struct {
	// MemorySlaveSelection uses Algorithm 1 instead of the workload-based
	// slave selection for type-2 fronts.
	MemorySlaveSelection bool
	// UseSubtreeInfo publishes the peak of the subtree a processor starts
	// and folds it into the slave-selection metric (Section 5.1).
	UseSubtreeInfo bool
	// UsePrediction publishes the cost of the largest ready master task of
	// each processor and folds it into the metric (Section 5.1).
	UsePrediction bool
	// MemoryTaskSelection uses Algorithm 2 for the local pool instead of
	// plain stack popping.
	MemoryTaskSelection bool
	// HybridSlaveSelection applies the workload filter of the MUMPS
	// baseline (only processors less loaded than the master) before the
	// memory-based Algorithm 1 — the hybrid strategy the paper's
	// conclusion calls for. Implies MemorySlaveSelection semantics for
	// the view maintenance.
	HybridSlaveSelection bool
	// SubtreeOrder selects the order in which each processor treats its
	// statically assigned subtrees ("the order in which subtrees are
	// treated is also important", Section 6, citing the author's RenPar
	// work).
	SubtreeOrder SubtreeOrder
}

// SubtreeOrder selects the initial pool ordering of a processor's
// subtrees.
type SubtreeOrder int

const (
	// SubtreePostorder treats subtrees in assembly-tree postorder (the
	// MUMPS default; leaves of one subtree stay contiguous).
	SubtreePostorder SubtreeOrder = iota
	// SubtreePeakDescending treats the subtree with the largest
	// sequential stack peak first, while the rest of the processor's
	// memory is still low — the heuristic of the paper's reference [11].
	SubtreePeakDescending
)

// Workload is the MUMPS baseline strategy (dynamic workload balancing).
func Workload() Strategy { return Strategy{} }

// MemoryBased enables all of the paper's memory mechanisms
// (Algorithm 1 + Section 5.1 improvements + Algorithm 2).
func MemoryBased() Strategy {
	return Strategy{
		MemorySlaveSelection: true,
		UseSubtreeInfo:       true,
		UsePrediction:        true,
		MemoryTaskSelection:  true,
	}
}

// Hybrid is the workload-constrained memory strategy of the paper's
// conclusion: Algorithm 1 (with the Section 5.1 metric and Algorithm 2)
// restricted to processors less loaded than the master.
func Hybrid() Strategy {
	s := MemoryBased()
	s.HybridSlaveSelection = true
	return s
}

// Params sets the machine model.
type Params struct {
	FlopRate float64 // elimination flops per second per processor
	AsmRate  float64 // assembly (extend-add) operations per second
	Comm     vmpi.Config
}

// DefaultParams models one Power4-class processor per rank and an
// interconnect scaled to the suite: the synthetic matrices are ~100x
// smaller than the paper's, so their fronts factorize ~100x faster; the
// latency and bandwidth are scaled by the same factor to preserve the
// IBM SP's compute-to-communication ratio (a 20us/200MB/s network against
// fronts that take hundreds of milliseconds). Without this scaling every
// dynamic decision would be made on views stale by many whole tasks —
// the Figure 5 hazard would dominate everything, which is not the regime
// the paper reports. Use vmpi.DefaultConfig() explicitly to study the
// stale-view regime (BenchmarkAblationLatency does).
func DefaultParams() Params {
	return Params{
		FlopRate: 2e9,
		AsmRate:  5e8,
		Comm: vmpi.Config{
			Latency:   200, // 0.2us
			BytesPerE: 8,
			Bandwidth: 20e9,
		},
	}
}

// Result reports the outcome of a simulated factorization.
type Result struct {
	// MaxActivePeak is the paper's headline metric: the maximum over
	// processors of the peak of stack + active fronts, in entries.
	MaxActivePeak int64
	// MaxStackPeak is the same for the CB stack alone.
	MaxStackPeak int64
	// MaxTotalPeak is the in-core total (factors + stack + fronts): the
	// memory an execution needs when factors stay in core. The gap to
	// MaxActivePeak is the out-of-core headroom the paper's conclusion
	// argues for (factors can go to disk; the stack cannot).
	MaxTotalPeak int64
	// AvgActivePeak indicates memory balance across processors.
	AvgActivePeak float64
	// PerProcPeak lists each processor's active-memory peak.
	PerProcPeak []int64
	// PeakProc is the processor achieving MaxActivePeak; PeakStack and
	// PeakFronts decompose that peak into CB stack vs live fronts, and
	// PeakTime is when it was reached — diagnostic facts the paper uses to
	// explain individual table cells (e.g. "the peak is obtained inside a
	// subtree" or "when a master of a large type 2 node is allocated").
	PeakProc   int
	PeakStack  int64
	PeakFronts int64
	PeakTime   des.Time
	// PeakNote describes the allocations making up the peak (only when
	// Config.Snapshot was set).
	PeakNote string
	// Makespan is the simulated factorization time: the time of the last
	// message delivery, view publications included, so it may end after
	// the last front completes.
	Makespan des.Time
	// TotalFactors is the factor entries produced (must match the model).
	TotalFactors int64
	// Messages and Bytes count the communication.
	Messages, Bytes int64
	// NodesDone counts completed fronts (must equal the tree size).
	NodesDone int
	// SlaveSelections counts type-2 slave-selection decisions.
	SlaveSelections int64
	// Alg2Deviations counts pool selections where Algorithm 2 picked a task
	// other than the top of the stack.
	Alg2Deviations int64
	// Traces holds per-processor memory traces when tracing was enabled.
	Traces [][]memory.TracePoint
}

// Config bundles everything a simulation run needs.
type Config struct {
	Tree     *assembly.Tree
	Map      *assembly.Mapping
	Strategy Strategy
	Params   Params
	Trace    bool // record per-processor memory traces
	// Snapshot records, for each processor, the composition of its memory
	// peak (which fronts/slave blocks were live) in Result.PeakNote.
	Snapshot bool
}

type slaveTask struct {
	node    int
	rows    int
	from    int // master rank
	area    int64
	fact    int64
	cbPiece int64
	flops   int64
}

// holder records a contribution-block piece parked on a producer's stack
// until the parent front consumes it.
type holder struct {
	proc    int
	entries int64
}

// nodeState tracks the dynamic execution state of one front.
type nodeState struct {
	childrenLeft int      // children not yet completed (tracked at owner)
	piecesLeft   int      // held-notifications announced but not yet arrived
	remotePieces int      // held-notifications this node sends remotely
	holders      []holder // where the children's CB pieces are parked
	pushed       bool
	started      bool
	completed    bool
	slavesLeft   int  // outstanding slave pieces (type 2)
	masterDone   bool // master segment finished (type 2)
	rootLeft     int  // outstanding processor shares (type 3)
}

// Message payloads.
type (
	msgChildDone struct{ node int }
	// msgCBHeld tells the parent's owner that a CB piece for child `node`
	// is parked on the sender's stack.
	msgCBHeld struct {
		node    int
		entries int64
	}
	// msgCBConsume tells a holder to release a parked CB piece (the data
	// transfer into the parent front is charged to this message).
	msgCBConsume struct{ entries int64 }
	msgSlaveTask struct {
		node    int
		rows    int
		area    int64 // front row-block entries to allocate at receipt
		fact    int64 // factor entries this slave produces
		cbPiece int64 // CB piece entries this slave stacks/sends
		flops   int64 // elimination flops of this row block
	}
	msgSlaveDone struct{ node int }
	// msgAssign announces a master's slave selection to every processor:
	// the memory and workload the chosen slaves are about to receive. This
	// is the paper's "mechanism [that] ensures that the choices done by
	// master processors are known as quickly as possible by the others"
	// (Section 4) — without it, concurrent masters see stale views and
	// pile their slave tasks onto the same processors (Figure 5).
	msgAssign struct {
		procs []int
		mem   []int64
		load  []int64
	}
	msgRootStart struct{ node int }
	msgRootDone  struct{ node int }
)
