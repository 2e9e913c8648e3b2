package model

import (
	"fmt"
	"slices"
	"sort"
)

// OpKind enumerates operator types in a computation graph.
type OpKind int

// Operator kinds. Embedding ops form the SparseNet; everything else is
// DenseNet.
const (
	OpEmbedPool   OpKind = iota // multi-hot Gather-and-Reduce (SLS)
	OpEmbedLookup               // one-hot / unpooled Gather
	OpFC                        // fully-connected layer (GEMM)
	OpAttention                 // DIN MLP attention over a sequence
	OpGRU                       // DIEN recurrent unit over a sequence
	OpInteraction               // DLRM pairwise dot-product interaction
	OpConcat                    // feature concatenation
	OpActivation                // element-wise ReLU / sigmoid
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpEmbedPool:
		return "EmbedPool"
	case OpEmbedLookup:
		return "EmbedLookup"
	case OpFC:
		return "FC"
	case OpAttention:
		return "Attention"
	case OpGRU:
		return "GRU"
	case OpInteraction:
		return "Interaction"
	case OpConcat:
		return "Concat"
	case OpActivation:
		return "Activation"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IndexBytes is the per-lookup sparse-index payload: an int64 row index
// plus an int64 CSR offset entry — what crosses PCIe per embedding
// lookup when gathers run on an accelerator.
const IndexBytes = 16

// IsSparse reports whether the kind belongs to the SparseNet Gs.
func (k OpKind) IsSparse() bool { return k == OpEmbedPool || k == OpEmbedLookup }

// Op is one node in a computation graph. Costs are per ranked item; the
// cost model multiplies by the batch's item count.
type Op struct {
	ID        int
	Kind      OpKind
	Name      string
	DependsOn []int // op IDs that must complete first
	// FLOPsPerItem is the dense arithmetic cost.
	FLOPsPerItem float64
	// BytesPerItem is the main-memory traffic (dominant for embeddings:
	// pooling × dim × 4 bytes of gathered rows).
	BytesPerItem float64
	// IndexBytesPerItem is the sparse-index input volume — what must
	// cross PCIe when the op runs on an accelerator.
	IndexBytesPerItem float64
	// WeightBytes is the parameter traffic per batch (read once per
	// batch, not per item): FC weight matrices, GRU gate matrices.
	// Small batches pay this cost per item; large batches amortize it.
	WeightBytes float64
	// Table indexes Model.Tables for embedding ops, else -1.
	Table int
	// Sequential ops (GRU) cannot be batched across the sequence
	// dimension; their latency has a serial component.
	Sequential bool
}

// Graph is an operator DAG for one model. Build one with BuildGraph
// and treat it as immutable afterwards: the op-ID lists and the dense
// topological order are derived once there and shared by every caller.
type Graph struct {
	Model *Model
	Ops   []Op

	allIDs, sparseIDs, denseIDs, denseOrder []int
}

// BuildGraph lowers a Model into its operator graph Gm. The layout
// mirrors Fig. 2(a): per-table embedding ops (independent), bottom MLP
// chain, optional attention, interaction/concat, predict MLP chain(s),
// with element-wise activations fused into the FC ops (the paper's
// operator-fusion step).
func BuildGraph(m *Model) *Graph {
	g := &Graph{Model: m}
	add := func(op Op) int {
		op.ID = len(g.Ops)
		g.Ops = append(g.Ops, op)
		return op.ID
	}

	// SparseNet: one op per table. Pooled tables reduce; unpooled gather.
	sparseIDs := make([]int, 0, len(m.Tables))
	var seqGatherID = -1
	for i, t := range m.Tables {
		kind := OpEmbedLookup
		if t.Pooled {
			kind = OpEmbedPool
		}
		pool := t.MeanPooling()
		op := Op{
			Kind:              kind,
			Name:              t.Name,
			FLOPsPerItem:      pool * float64(t.Dim), // reduction adds
			BytesPerItem:      pool * float64(t.Dim) * 4,
			IndexBytesPerItem: pool * IndexBytes,
			Table:             i,
		}
		id := add(op)
		sparseIDs = append(sparseIDs, id)
		if !t.Pooled && t.PoolingMax > 1 {
			seqGatherID = id
		}
	}

	// Bottom MLP chain.
	lastBottom := -1
	in := m.DenseInDim
	for li, out := range m.BottomMLP {
		op := Op{
			Kind:         OpFC,
			Name:         fmt.Sprintf("bottom-fc%d", li),
			FLOPsPerItem: 2 * float64(in) * float64(out),
			BytesPerItem: float64(in+out) * 4,
			WeightBytes:  float64(in) * float64(out) * 4,
		}
		if lastBottom >= 0 {
			op.DependsOn = []int{lastBottom}
		}
		lastBottom = add(op)
		in = out
	}

	// Attention over the behaviour sequence (depends on its gather).
	attnID := -1
	if m.Attention != AttentionNone && seqGatherID >= 0 {
		seq := m.meanSeqLen()
		d, h := m.seqFeatureDim(), m.AttentionHidden
		var op Op
		switch m.Attention {
		case AttentionFC:
			op = Op{
				Kind:         OpAttention,
				Name:         "attention-fc",
				FLOPsPerItem: seq * (2*float64(4*d)*float64(h) + 2*float64(h)),
				BytesPerItem: seq * float64(d) * 4,
				WeightBytes:  float64(4*d*h+h) * 4,
				DependsOn:    []int{seqGatherID},
			}
		case AttentionGRU:
			op = Op{
				Kind:         OpGRU,
				Name:         "gru",
				FLOPsPerItem: seq * 2 * 3 * float64(h) * float64(h+d),
				BytesPerItem: seq * float64(d+h) * 4,
				WeightBytes:  float64(3*h*(h+d)) * 4,
				DependsOn:    []int{seqGatherID},
				Sequential:   true,
			}
		}
		attnID = add(op)
	}

	// Feature combination: interaction (DLRM) or concat.
	deps := make([]int, 0, len(sparseIDs)+2)
	deps = append(deps, sparseIDs...)
	if lastBottom >= 0 {
		deps = append(deps, lastBottom)
	}
	if attnID >= 0 {
		deps = append(deps, attnID)
	}
	var combineID int
	if m.Interaction {
		n := len(m.Tables) + 1
		d := m.Tables[0].Dim
		combineID = add(Op{
			Kind:         OpInteraction,
			Name:         "interaction",
			FLOPsPerItem: float64(n*(n-1)/2) * 2 * float64(d),
			BytesPerItem: float64(n*d) * 4,
			DependsOn:    deps,
		})
	} else {
		combineID = add(Op{
			Kind:         OpConcat,
			Name:         "concat",
			FLOPsPerItem: 0,
			BytesPerItem: float64(m.predictInDim()) * 4,
			DependsOn:    deps,
		})
	}

	// Predict MLP chain(s): Tasks parallel towers.
	for task := 0; task < m.Tasks; task++ {
		prev := combineID
		in := m.predictInDim()
		for li, out := range m.PredictMLP {
			op := Op{
				Kind:         OpFC,
				Name:         fmt.Sprintf("predict-t%d-fc%d", task, li),
				FLOPsPerItem: 2 * float64(in) * float64(out),
				BytesPerItem: float64(in+out) * 4,
				WeightBytes:  float64(in) * float64(out) * 4,
				DependsOn:    []int{prev},
			}
			prev = add(op)
			in = out
		}
	}
	g.allIDs = make([]int, len(g.Ops))
	for i := range g.Ops {
		if !g.Ops[i].Kind.IsSparse() && g.Ops[i].Table == 0 {
			g.Ops[i].Table = -1
		}
		g.allIDs[i] = i
		if g.Ops[i].Kind.IsSparse() {
			g.sparseIDs = append(g.sparseIDs, i)
		} else {
			g.denseIDs = append(g.denseIDs, i)
		}
	}
	// Clip capacities so a caller's append copies instead of writing
	// into the shared backing arrays.
	g.sparseIDs = slices.Clip(g.sparseIDs)
	g.denseIDs = slices.Clip(g.denseIDs)
	g.denseOrder = g.TopoOrder(g.denseIDs)
	return g
}

// AllOps returns every operator ID in graph order. The slice is shared:
// callers must not modify it.
func (g *Graph) AllOps() []int { return g.allIDs }

// SparseOps returns the SparseNet (Gs) operator IDs. The slice is
// shared: callers must not modify it.
func (g *Graph) SparseOps() []int { return g.sparseIDs }

// DenseOps returns the DenseNet (Gd) operator IDs. The slice is shared:
// callers must not modify it.
func (g *Graph) DenseOps() []int { return g.denseIDs }

// DenseOrder returns TopoOrder(DenseOps()), computed once by
// BuildGraph. The slice is shared: callers must not modify it.
func (g *Graph) DenseOrder() []int { return g.denseOrder }

// TotalWork sums the per-item FLOPs and bytes of the given op set.
func (g *Graph) TotalWork(ids []int) (flops, bytes float64) {
	for _, id := range ids {
		flops += g.Ops[id].FLOPsPerItem
		bytes += g.Ops[id].BytesPerItem
	}
	return flops, bytes
}

// CriticalPathFLOPs returns the longest dependency-chain FLOPs within
// the given op subset: the serial floor that limits op-parallel speedup
// (the source of the idle time in Fig. 5).
func (g *Graph) CriticalPathFLOPs(ids []int) float64 {
	in := make(map[int]bool, len(ids))
	for _, id := range ids {
		in[id] = true
	}
	memo := make(map[int]float64, len(ids))
	var longest func(id int) float64
	longest = func(id int) float64 {
		if v, ok := memo[id]; ok {
			return v
		}
		best := 0.0
		for _, dep := range g.Ops[id].DependsOn {
			if in[dep] {
				if l := longest(dep); l > best {
					best = l
				}
			}
		}
		v := best + g.Ops[id].FLOPsPerItem
		memo[id] = v
		return v
	}
	var max float64
	for _, id := range ids {
		if l := longest(id); l > max {
			max = l
		}
	}
	return max
}

// TopoOrder returns op IDs in a deterministic topological order.
// BuildGraph already emits ops topologically, but partitioned sub-graphs
// re-derive order after filtering. The whole dense set's order is
// cached (DenseOrder); this runs only for other subsets.
func (g *Graph) TopoOrder(ids []int) []int {
	// Op IDs index g.Ops, so the bookkeeping lives in flat slices with a
	// CSR successor table instead of maps.
	n := len(g.Ops)
	in := make([]bool, n)
	for _, id := range ids {
		in[id] = true
	}
	indeg := make([]int, n)
	off := make([]int, n+1)
	for _, id := range ids {
		for _, dep := range g.Ops[id].DependsOn {
			if in[dep] {
				indeg[id]++
				off[dep+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	succ := make([]int, off[n])
	fill := make([]int, n)
	copy(fill, off[:n])
	for _, id := range ids {
		for _, dep := range g.Ops[id].DependsOn {
			if in[dep] {
				succ[fill[dep]] = id
				fill[dep]++
			}
		}
	}
	ready := make([]int, 0, len(ids))
	for _, id := range ids {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, len(ids))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		next := succ[off[id]:fill[id]]
		sort.Ints(next)
		for _, s := range next {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}
