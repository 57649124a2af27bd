package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// Verdict-table entries. The zero value means "not yet decided", so a fresh
// dense table needs no initialization.
const (
	verdictUnknown uint8 = iota
	verdictReject
	verdictAccept
)

// denseVerdictCap is the largest key space a verdictTable stores as a
// slice, one byte per key (64 KiB); larger key spaces fall back to a map.
const denseVerdictCap = 1 << 16

// verdictTable memoizes boolean verdicts by uint64 key: a dense tri-state
// slice indexed by the key when the key space fits denseVerdictCap, a map
// otherwise.
type verdictTable struct {
	dense  []uint8
	sparse map[uint64]bool
}

// newVerdictTable returns an empty table for keys in [0, space).
func newVerdictTable(space uint64) verdictTable {
	if space <= denseVerdictCap {
		return verdictTable{dense: make([]uint8, space)}
	}
	return verdictTable{sparse: make(map[uint64]bool)}
}

func (t *verdictTable) get(k uint64) (out, ok bool) {
	if t.sparse == nil {
		e := t.dense[k]
		return e == verdictAccept, e != verdictUnknown
	}
	out, ok = t.sparse[k]
	return out, ok
}

func (t *verdictTable) put(k uint64, out bool) {
	if t.sparse != nil {
		t.sparse[k] = out
		return
	}
	if out {
		t.dense[k] = verdictAccept
	} else {
		t.dense[k] = verdictReject
	}
}

// labelSweep accelerates repeated strong-soundness checks of many labelings
// of one fixed instance: per-node view templates amortize extraction across
// labelings (only the per-view label slice is rebuilt), and per-node
// verdict tables keyed by the node's neighborhood labeling amortize decoder
// calls. A labelSweep is not safe for concurrent use; the parallel drivers
// give each worker its own.
//
// The exhaustive path (sweepShard, which walks a graph.LabelingCursor; or
// seek/evaluate, or check for both) is incremental: the sweep keeps the
// previous labeling and each node's neighborhood rank and verdict under
// it, and moving to the next labeling re-ranks only the digits from the
// lowest one that changed and re-looks-up only the nodes whose
// neighborhood saw a changed digit. Any order of labelings works,
// including jumps between shards. That per-node state is one block per
// sweep (sweepNode), and sweepShard reads the state its worker shares with
// others only once per sweepBlock labelings.
//
// The sweep reproduces the sequential check exactly: same decoder verdicts
// (decoders are pure functions of the view), same induced subgraph, same
// first violation.
type labelSweep struct {
	d        Decoder
	lang     Language
	inst     Instance
	alphabet []string
	tpl      []*view.Template
	// memo[v] maps the rank of node v's neighborhood labeling,
	// Σ_i idx[hosts(v)[i]]·|alphabet|^i, to v's verdict. Nodes whose rank
	// would overflow uint64 have no table and are listed in unranked.
	memo     []verdictTable
	unranked []int
	// touch is the inverse host index over ranked nodes, in CSR form: for
	// j in [touchAt[w], touchAt[w+1]), hosts(touchNode[j])[i] = w with
	// touchPow[j] = |alphabet|^i, so a change of w's digit by delta moves
	// rank[touchNode[j]] by delta·touchPow[j].
	touchAt   []int
	touchNode []int
	touchPow  []uint64
	// lpow[w] is |alphabet|^(n-1-w), w's weight in the labeling rank.
	lpow []uint64

	// Incremental state: per node, the labeling the sweep stands at, the
	// node's neighborhood rank and verdict under it and its stale mark (in
	// node); the labeling's rank; and the accepting-set bitmask (instances
	// with at most 64 nodes). Ranks use wrapping uint64 arithmetic, which
	// is exact once every digit is applied. The sweep starts at the
	// all-zero labeling with every ranked node stale.
	node  []sweepNode
	lrank uint64
	mask  uint64
	// stale lists the ranked nodes whose rank changed since their last
	// lookup; their stale marks dedupe it.
	stale []int
	// cur walks the shard sweepShard checks; its buffer is reused across
	// shards.
	cur graph.LabelingCursor

	// labels is alphabet[node[v].digit] per node, refilled only when a
	// decoder call or a violation needs it (labelsFresh false after any
	// move).
	labels      []string
	labelsFresh bool
	// smemo memoizes checkLabels verdicts by the node's concatenated
	// (length-prefixed) host labels, for label streams outside the alphabet.
	smemo  []map[string]bool
	acc    []int
	keyBuf []byte
	// mu is the scratch view refilled per memo-miss decoder call
	// (view.Template.InstantiateInto). Decoders are pure functions of the
	// view (pinned by the decoderpurity analyzer) and the sweep never
	// retains or interns the instance, so one scratch view per sweep is
	// safe.
	mu view.View
	// langMemo memoizes lang.Contains by accepting-set bitmask (instances
	// with at most 64 nodes): the language verdict is a pure function of
	// the induced subgraph, which the accepting set determines.
	langMemo verdictTable
	useMask  bool

	// Plain tallies, private to the owning goroutine (a labelSweep is
	// single-goroutine by contract); the scoped parallel drivers harvest
	// them after their worker barrier.
	nChecked        int64 // labelings verified
	nDecide         int64 // per-node verdicts requested
	nDecideMemoHits int64 // verdicts served from the verdict tables (untouched nodes included)
	nDecideInner    int64 // verdicts that invoked the decoder
	nLangEvals      int64 // language membership evaluations
	nLangMemoHits   int64 // language verdicts served from the bitmask memo
}

// harvest folds the sweep's tallies into the scope's counters. Call only
// after the owning goroutine has finished sweeping.
func (s *labelSweep) harvest(sc obs.Scope) {
	if s == nil || !sc.Enabled() {
		return
	}
	sc.Counter("core.sweep.labelings.checked").Add(s.nChecked)
	sc.Counter("core.sweep.decide.calls").Add(s.nDecide)
	sc.Counter("core.sweep.decide.memo_hits").Add(s.nDecideMemoHits)
	sc.Counter("core.sweep.decide.inner").Add(s.nDecideInner)
	sc.Counter("core.sweep.lang.evals").Add(s.nLangEvals)
	sc.Counter("core.sweep.lang.memo_hits").Add(s.nLangMemoHits)
}

// newLabelSweep extracts one view template per node of inst. The returned
// error matches the text of the legacy per-labeling extraction error
// ("node %d: ..."), which only triggers on malformed instances.
func newLabelSweep(d Decoder, lang Language, inst Instance, alphabet []string) (*labelSweep, error) {
	n := inst.G.N()
	s := &labelSweep{
		d: d, lang: lang, inst: inst, alphabet: alphabet,
		tpl:     make([]*view.Template, n),
		memo:    make([]verdictTable, n),
		touchAt: make([]int, n+1),
		lpow:    make([]uint64, n),
		node:    make([]sweepNode, n),
		stale:   make([]int, 0, n),
		labels:  make([]string, n),
		smemo:   make([]map[string]bool, n),
		acc:     make([]int, 0, n),
		useMask: n <= 64,
	}
	if s.useMask {
		space := uint64(math.MaxUint64)
		if n < 64 {
			space = 1 << uint(n)
		}
		s.langMemo = newVerdictTable(space)
	}
	ids := inst.IDs
	if d.Anonymous() {
		// Anonymous decoders see anonymized views; extracting without
		// identifiers yields the same views without the per-call clone.
		ids = nil
	}
	var ex view.Extractor
	r := d.Rounds()
	a := uint64(len(alphabet))
	for v := 0; v < n; v++ {
		t, err := ex.Template(inst.G, inst.Prt, ids, inst.NBound, v, r)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", v, err)
		}
		s.tpl[v] = t
		s.smemo[v] = make(map[string]bool)
		// v is ranked when its rank space |alphabet|^|view| fits a uint64.
		space, ok := uint64(1), true
		for i := 0; i < t.N() && ok; i++ {
			ok = a == 0 || space <= math.MaxUint64/a
			space *= a
		}
		if !ok {
			s.unranked = append(s.unranked, v)
			continue
		}
		s.memo[v] = newVerdictTable(space)
		s.stale = append(s.stale, v)
		s.node[v].stale = true
		for _, w := range t.Hosts() {
			s.touchAt[w+1]++
		}
	}
	for w := 0; w < n; w++ {
		s.touchAt[w+1] += s.touchAt[w]
	}
	s.touchNode = make([]int, s.touchAt[n])
	s.touchPow = make([]uint64, s.touchAt[n])
	next := append([]int(nil), s.touchAt[:n]...)
	// Every ranked node starts stale, so s.stale lists exactly them.
	for _, v := range s.stale {
		p := uint64(1)
		for _, w := range s.tpl[v].Hosts() {
			s.touchNode[next[w]] = v
			s.touchPow[next[w]] = p
			next[w]++
			p *= a
		}
	}
	p := uint64(1)
	for w := n - 1; w >= 0; w-- {
		s.lpow[w] = p
		p *= a
	}
	return s, nil
}

// sweepNode is one node's hot state in the incremental sweep. A sweep
// keeps all of it in one slice, so a step writes a few adjacent words of
// its worker's own allocation; a slice of a few bools would be a tiny
// allocation, which the runtime may pack into one 16-byte block with
// another goroutine's data. digit is the node's label (an alphabet index)
// in the labeling the sweep stands at, rank and verdict are its
// neighborhood rank and verdict under that labeling, and stale marks a
// rank changed since its last lookup.
type sweepNode struct {
	rank    uint64
	digit   int
	verdict bool
	stale   bool
}

// sweepBlock is the number of labelings sweepShard checks between two
// reads of the state its worker shares with the others: the stop signal
// and the best violation rank. In between, a step touches only the worker's
// own sweep and cursor. A stopped worker overruns by at most one block,
// and a pruned shard by at most one block past the best rank.
const sweepBlock = 64

// sweepShard checks the labelings of the given shard of shards
// (graph.LabelingCursor order) until the shard is exhausted, stop fires,
// a labeling ranks past first's best violation (counted in pruned), or a
// violation is found, which is offered to first at its labeling rank.
func (s *labelSweep) sweepShard(shard, shards int, stop *cancel.Stop, first *cancel.First, pruned *obs.Counter) {
	s.cur.Reset(len(s.node), len(s.alphabet), shard, shards)
	var best uint64
	for k := 0; ; k++ {
		if k%sweepBlock == 0 {
			if stop.Stopped() {
				return
			}
			best = first.Best()
		}
		from, ok := s.cur.Next()
		if !ok {
			return
		}
		r := s.seek(s.cur.Labeling(), from)
		// Ranks increase within a shard, so everything past the best
		// violation is prunable: any violation there would rank higher and
		// lose to the recorded one anyway. best may lag first by a block,
		// which costs work, not answers. It is never r itself, as shards
		// are disjoint, and never exceeded before any violation.
		if r > best {
			pruned.Inc()
			return
		}
		if err := s.evaluate(); err != nil {
			first.Offer(r, err)
			return
		}
	}
}

// check verifies strong soundness for the labeling alphabet[idx[0]],
// alphabet[idx[1]], … — the EnumLabelings representation.
func (s *labelSweep) check(idx []int) error {
	s.seek(idx, 0)
	return s.evaluate()
}

// seek moves the sweep to labeling idx, which agrees with the labeling the
// sweep stands at on every digit below from (0 for an arbitrary jump), and
// returns its lexicographic rank (the EnumLabelings position; exact when
// the labeling space fits a uint64, see graph.LabelingRankFits). Only the
// digits from on that differ from the previous labeling cost work: each
// adjusts the labeling rank and the ranks of the nodes whose neighborhood
// contains it, and marks those nodes stale.
func (s *labelSweep) seek(idx []int, from int) uint64 {
	node := s.node
	for w := from; w < len(idx); w++ {
		a, old := idx[w], node[w].digit
		if a == old {
			continue
		}
		node[w].digit = a
		s.labelsFresh = false
		delta := uint64(a) - uint64(old)
		s.lrank += delta * s.lpow[w]
		for j := s.touchAt[w]; j < s.touchAt[w+1]; j++ {
			v := s.touchNode[j]
			node[v].rank += delta * s.touchPow[j]
			if !node[v].stale {
				node[v].stale = true
				s.stale = append(s.stale, v)
			}
		}
	}
	return s.lrank
}

// evaluate verifies strong soundness for the labeling the sweep stands at.
// Stale nodes are re-looked-up in their verdict tables (deciding on a
// miss), unranked nodes are re-decided, and every other node keeps its
// verdict, counted as the memo hit its unchanged rank would have been.
func (s *labelSweep) evaluate() error {
	inner := int64(0)
	for _, v := range s.stale {
		s.node[v].stale = false
		rank := s.node[v].rank
		out, ok := s.memo[v].get(rank)
		if !ok {
			inner++
			out = s.decide(v)
			s.memo[v].put(rank, out)
		}
		s.setVerdict(v, out)
	}
	s.stale = s.stale[:0]
	for _, v := range s.unranked {
		inner++
		s.setVerdict(v, s.decide(v))
	}
	n := int64(len(s.tpl))
	s.nChecked++
	s.nDecide += n
	s.nDecideInner += inner
	s.nDecideMemoHits += n - inner
	if !s.inLang() {
		s.fillLabels()
		return s.violation(s.labels)
	}
	return nil
}

func (s *labelSweep) setVerdict(v int, out bool) {
	s.node[v].verdict = out
	bit := uint64(1) << uint(v&63)
	if out {
		s.mask |= bit
	} else {
		s.mask &^= bit
	}
}

// decide runs the decoder on node v's view under the current labeling.
func (s *labelSweep) decide(v int) bool {
	s.fillLabels()
	return s.d.Decide(s.tpl[v].InstantiateInto(&s.mu, s.labels))
}

func (s *labelSweep) fillLabels() {
	if s.labelsFresh {
		return
	}
	for v := range s.node {
		s.labels[v] = s.alphabet[s.node[v].digit]
	}
	s.labelsFresh = true
}

// accepting returns the accepting set under the current labeling, in node
// order, in the sweep's scratch slice.
func (s *labelSweep) accepting() []int {
	acc := s.acc[:0]
	for v := range s.node {
		if s.node[v].verdict {
			acc = append(acc, v)
		}
	}
	s.acc = acc
	return acc
}

// checkLabels verifies strong soundness for an arbitrary labeling (the fuzz
// path). len(labels) must equal the instance size. It overwrites the
// verdicts seek/evaluate keep, so one sweep serves either the exhaustive
// path or this one, never both.
func (s *labelSweep) checkLabels(labels []string) error {
	for v, t := range s.tpl {
		kb := s.keyBuf[:0]
		for _, w := range t.Hosts() {
			kb = binary.AppendUvarint(kb, uint64(len(labels[w])))
			kb = append(kb, labels[w]...)
		}
		s.keyBuf = kb
		out, ok := s.smemo[v][string(kb)]
		if ok {
			s.nDecideMemoHits++
		} else {
			s.nDecideInner++
			out = s.d.Decide(t.InstantiateInto(&s.mu, labels))
			s.smemo[v][string(kb)] = out
		}
		s.setVerdict(v, out)
	}
	s.nChecked++
	s.nDecide += int64(len(s.tpl))
	if !s.inLang() {
		return s.violation(labels)
	}
	return nil
}

// inLang reports whether the subgraph induced by the current accepting set
// is in the language, memoized by the accepting-set bitmask.
func (s *labelSweep) inLang() bool {
	var ok, hit bool
	if s.useMask {
		ok, hit = s.langMemo.get(s.mask)
	}
	if hit {
		s.nLangMemoHits++
		return ok
	}
	s.nLangEvals++
	sub, _ := s.inst.G.InducedSubgraph(s.accepting())
	ok = s.lang.Contains(sub)
	if s.useMask {
		s.langMemo.put(s.mask, ok)
	}
	return ok
}

// violation reports the current accepting set under labels as a strong
// soundness violation, copying both out of the sweep's scratch.
func (s *labelSweep) violation(labels []string) error {
	return &StrongSoundnessViolation{
		Labeled:   MustNewLabeled(s.inst, append([]string(nil), labels...)),
		Accepting: append([]int(nil), s.accepting()...),
	}
}
