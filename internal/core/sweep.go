package core

import (
	"encoding/binary"
	"fmt"
	"math"

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
// The exhaustive path (seek/evaluate, or check for both) is incremental:
// the sweep keeps the previous labeling and each node's neighborhood rank
// and verdict under it, and moving to the next labeling re-looks-up only
// the nodes whose neighborhood saw a changed digit. Any order of labelings
// works, including jumps between shards.
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

	// Incremental state: the labeling the sweep stands at, its rank, each
	// node's neighborhood rank and verdict under it, and the accepting-set
	// bitmask (instances with at most 64 nodes). Ranks use wrapping uint64
	// arithmetic, which is exact once every digit is applied. The sweep
	// starts at the all-zero labeling with every ranked node stale.
	prev    []int
	lrank   uint64
	rank    []uint64
	verdict []bool
	mask    uint64
	// stale lists the ranked nodes whose rank changed since their last
	// lookup; isStale dedupes it.
	stale   []int
	isStale []bool

	// labels is alphabet[prev[v]] per node, refilled only when a decoder
	// call or a violation needs it (labelsFresh false after any move).
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
		prev:    make([]int, n),
		rank:    make([]uint64, n),
		verdict: make([]bool, n),
		stale:   make([]int, 0, n),
		isStale: make([]bool, n),
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
		s.isStale[v] = true
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

// check verifies strong soundness for the labeling alphabet[idx[0]],
// alphabet[idx[1]], … — the EnumLabelings representation.
func (s *labelSweep) check(idx []int) error {
	s.seek(idx)
	return s.evaluate()
}

// seek moves the sweep to labeling idx and returns its lexicographic rank
// (the EnumLabelings position; exact when the labeling space fits a uint64,
// see graph.LabelingRankFits). Only the digits that differ from the
// previous labeling cost work: each adjusts the labeling rank and the ranks
// of the nodes whose neighborhood contains it, and marks those nodes stale.
func (s *labelSweep) seek(idx []int) uint64 {
	for w, a := range idx {
		old := s.prev[w]
		if a == old {
			continue
		}
		s.prev[w] = a
		s.labelsFresh = false
		delta := uint64(a) - uint64(old)
		s.lrank += delta * s.lpow[w]
		for j := s.touchAt[w]; j < s.touchAt[w+1]; j++ {
			v := s.touchNode[j]
			s.rank[v] += delta * s.touchPow[j]
			if !s.isStale[v] {
				s.isStale[v] = true
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
		s.isStale[v] = false
		out, ok := s.memo[v].get(s.rank[v])
		if !ok {
			inner++
			out = s.decide(v)
			s.memo[v].put(s.rank[v], out)
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
	s.verdict[v] = out
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
	for v, a := range s.prev {
		s.labels[v] = s.alphabet[a]
	}
	s.labelsFresh = true
}

// accepting returns the accepting set under the current labeling, in node
// order, in the sweep's scratch slice.
func (s *labelSweep) accepting() []int {
	acc := s.acc[:0]
	for v, out := range s.verdict {
		if out {
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
