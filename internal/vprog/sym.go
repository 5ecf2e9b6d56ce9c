package vprog

import (
	"sort"

	"repro/internal/graph"
)

// Thread-symmetry validation. A program declares candidate symmetric
// groups (Program.SymGroups) and tags the variables that carry thread
// identity (Var.TagOwner / Var.TagTid); this file checks the
// declaration against the built program and produces the graph.SymSpec
// the explorer canonicalizes with. The check never trusts the
// declaration: groups that fail validation are dropped, malformed tags
// disable symmetry for the whole program, and a program with no
// surviving groups simply runs without symmetry reduction.
//
// Validation is trace-based: the program is executed sequentially once
// per candidate permutation pi, visiting threads in canonical-slot
// order (slot s runs thread pi^-1(s)) against a real in-order memory,
// while folding a trace in which locations and values are rewritten
// under pi — owned locations fold as (family, slot of owner under pi),
// tid-carrying values have their id field mapped through pi. For a
// genuinely symmetric program every permutation folds to the identical
// hash; any divergence (a thread id stored raw to an untagged
// variable, an assert message embedding a thread id, a constant that
// happens to decode to a peer's id at a tagged location, asymmetric
// initial values, an asymmetric final check) shows up as a trace
// mismatch and drops the group. The same folded trace under the
// identity permutation is the program's canonical fingerprint
// (Fingerprint128), which is why permuted builds of one symmetric
// program unify to one verdict-store key.
//
// Trust model: like Fingerprint128 itself, the trace witnesses the
// sequential execution path only — code reachable solely under
// contention (a CAS-failure arm, a queue-lock handoff) is not
// exercised, so an asymmetry hiding exclusively in a contended path
// would go undetected here. The permutation-differential test suite
// (symmetry-on vs symmetry-off over the full corpus) is the empirical
// oracle for exactly that residual risk, and Checker.NoSymmetry keeps
// the unreduced path available as a differential baseline.

// SymSpec returns the program's validated symmetry metadata, or nil
// when the program declares no symmetric groups or none survive
// validation. The result is memoized: Build runs at most once for
// validation no matter how many runs share the program.
func (p *Program) SymSpec() *graph.SymSpec {
	p.symOnce.Do(func() { p.symSpec = buildSymSpec(p) })
	return p.symSpec
}

// symTables is the vprog-side view of the variable tags: the location
// tables a graph.SymSpec needs plus the pieces only the canonical
// trace folds (family names, unowned allocation ranks, initial
// values).
type symTables struct {
	owner   []int32   // loc -> owning thread, -1 unowned
	fam     []int32   // loc -> family id, -1 none
	famLoc  [][]int32 // family -> owner thread -> loc (-1 absent)
	famName []string  // family id -> SymFamily name (first-use order)
	tagged  []bool
	shift   []uint8
	bias    []int64
	rank    []int32 // loc -> rank among unowned vars, -1 for owned
	inits   []uint64
	ok      bool // tags well-formed
}

// buildSymTables derives the tag tables from a built VarSet. Malformed
// tags (an owner outside [0,n), an owned variable without a family, two
// variables claiming the same family member) clear ok — symmetry is
// then disabled outright rather than guessing what the program meant.
func buildSymTables(vs *VarSet, n int) symTables {
	nv := len(vs.Vars)
	tb := symTables{
		owner:  make([]int32, nv),
		fam:    make([]int32, nv),
		tagged: make([]bool, nv),
		shift:  make([]uint8, nv),
		bias:   make([]int64, nv),
		rank:   make([]int32, nv),
		inits:  vs.Inits(),
		ok:     true,
	}
	famID := map[string]int{}
	unowned := int32(0)
	for i, v := range vs.Vars {
		tb.owner[i], tb.fam[i], tb.rank[i] = -1, -1, -1
		tb.tagged[i], tb.shift[i], tb.bias[i] = v.SymTid, v.SymShift, v.SymBias
		if v.SymOwner == 0 {
			tb.rank[i] = unowned
			unowned++
			continue
		}
		o := v.SymOwner - 1
		if o < 0 || o >= n || v.SymFamily == "" {
			tb.ok = false
			return tb
		}
		f, seen := famID[v.SymFamily]
		if !seen {
			f = len(tb.famName)
			famID[v.SymFamily] = f
			tb.famName = append(tb.famName, v.SymFamily)
			row := make([]int32, n)
			for t := range row {
				row[t] = -1
			}
			tb.famLoc = append(tb.famLoc, row)
		}
		if tb.famLoc[f][o] >= 0 {
			tb.ok = false
			return tb
		}
		tb.owner[i], tb.fam[i] = int32(o), int32(f)
		tb.famLoc[f][o] = int32(i)
	}
	return tb
}

// spec assembles a finalized graph.SymSpec over the given groups (nil
// if Finalize refuses — e.g. the permutation count exceeds its cap).
func (tb *symTables) spec(n int, groups [][]int) *graph.SymSpec {
	s := &graph.SymSpec{
		N: n, Groups: groups,
		LocOwner: tb.owner, LocFam: tb.fam, FamLoc: tb.famLoc,
		ValTagged: tb.tagged, ValShift: tb.shift, ValBias: tb.bias,
	}
	if !s.Finalize() {
		return nil
	}
	return s
}

// idField decodes the thread-id field of a value at loc l, or -1 when
// the location is untagged (callers treat out-of-range like untagged).
func (tb *symTables) idField(l int32, v uint64) int64 {
	if !tb.tagged[l] {
		return -1
	}
	return int64(v>>tb.shift[l]) - tb.bias[l]
}

// groupStructOK runs the structural checks the traces cannot be
// trusted to cover (family members may never be touched on the
// sequential path): every family owned into the group must cover it
// completely with uniform value-tag parameters, and no unowned tagged
// variable may be initialized to a member's thread id (initial values
// are never relabeled at their location, so such an init would make
// relabeled graphs diverge from the real permuted run).
func (tb *symTables) groupStructOK(grp []int) bool {
	in := map[int]bool{}
	for _, t := range grp {
		in[t] = true
	}
	for f := range tb.famName {
		row := tb.famLoc[f]
		cnt := 0
		for _, t := range grp {
			if row[t] >= 0 {
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		if cnt != len(grp) {
			return false
		}
		l0 := row[grp[0]]
		for _, t := range grp {
			l := row[t]
			if tb.tagged[l] != tb.tagged[l0] || tb.shift[l] != tb.shift[l0] || tb.bias[l] != tb.bias[l0] {
				return false
			}
		}
	}
	for l := range tb.tagged {
		if tb.owner[l] >= 0 || !tb.tagged[l] {
			continue
		}
		if fv := tb.idField(int32(l), tb.inits[l]); fv >= 0 && in[int(fv)] {
			return false
		}
	}
	return true
}

// normalizeGroups sorts, dedups and range-checks the declared groups,
// dropping any group that is too small, out of range, or overlaps an
// earlier kept group.
func normalizeGroups(declared [][]int, n int) [][]int {
	var out [][]int
	taken := make([]bool, n)
	for _, g := range declared {
		grp := append([]int(nil), g...)
		sort.Ints(grp)
		ok := len(grp) >= 2
		for i, t := range grp {
			if t < 0 || t >= n || taken[t] || (i > 0 && grp[i-1] == t) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, t := range grp {
			taken[t] = true
		}
		out = append(out, grp)
	}
	return out
}

// buildSymSpec validates the declared groups against one build of the
// program: structural checks first, then each group alone must fold
// identical canonical traces over all of its permutations, then the
// surviving groups together over the full candidate set (cross-group
// interactions — e.g. a family init carrying another group's thread id
// — only show up in mixed permutations). Any combined failure disables
// symmetry entirely rather than guessing which group to blame.
func buildSymSpec(p *Program) *graph.SymSpec {
	if len(p.SymGroups) == 0 {
		return nil
	}
	vs := &VarSet{}
	threads, final := p.Build(vs)
	n := len(threads)
	groups := normalizeGroups(p.SymGroups, n)
	if len(groups) == 0 {
		return nil
	}
	tb := buildSymTables(vs, n)
	if !tb.ok {
		return nil
	}
	var kept [][]int
	for _, g := range groups {
		if tb.groupStructOK(g) && validatePerms(vs, &tb, threads, final, [][]int{g}, n) {
			kept = append(kept, g)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	if len(kept) > 1 && !validatePerms(vs, &tb, threads, final, kept, n) {
		return nil
	}
	return tb.spec(n, kept)
}

// validatePerms reports whether every candidate permutation of the
// given groups folds the same canonical trace.
func validatePerms(vs *VarSet, tb *symTables, threads []ThreadFunc, final FinalCheck, groups [][]int, n int) bool {
	s := tb.spec(n, groups)
	if s == nil {
		return false
	}
	perms := s.AllPerms()
	ref := canonTrace(vs, tb, s, threads, final, perms[0])
	for _, pm := range perms[1:] {
		if canonTrace(vs, tb, s, threads, final, pm) != ref {
			return false
		}
	}
	return true
}

// canonMem is the recording sequential interpreter behind every
// program fingerprint: each Mem operation executes against a plain
// in-order memory indexed by real locations and is folded into the hash
// — opcode, location, barrier mode and the values read and written. It
// is deterministic because thread bodies are deterministic given the
// values their Mem operations return (the ThreadFunc contract) and the
// sequential memory returns deterministic values.
//
// With symmetry tables the trace folds equivariant tokens — owned
// locations as (family, owner's slot under perm), unowned locations as
// their allocation rank, and values with their thread-id field mapped
// through perm — so for a symmetric program it is independent of which
// permutation scheduled the threads. Without them (tb, spec and perm
// all nil: a program with no validated symmetry) the fold is the
// identity: locations are their ids and values are themselves.
type canonMem struct {
	h    *graph.Hasher128
	mem  []uint64
	tb   *symTables
	spec *graph.SymSpec
	perm []int32
	tid  int
}

func (m *canonMem) locTok(v *Var) uint64 {
	if m.tb == nil {
		return uint64(uint32(v.ID))
	}
	if o := m.tb.owner[v.ID]; o >= 0 {
		return 1<<31 | uint64(uint32(m.tb.fam[v.ID]))<<20 | uint64(uint32(m.perm[o]))
	}
	return uint64(uint32(m.tb.rank[v.ID]))
}

func (m *canonMem) mv(v *Var, x uint64) uint64 {
	if m.spec == nil {
		return x
	}
	return m.spec.MapVal(m.perm, graph.Loc(v.ID), x)
}

func (m *canonMem) op(tag int, v *Var, mode Mode, words ...uint64) {
	m.h.Word(uint64(tag)<<56 | uint64(mode)<<48 | m.locTok(v))
	for _, w := range words {
		m.h.Word(w)
	}
}

func (m *canonMem) Load(v *Var, mode Mode) uint64 {
	x := m.mem[v.ID]
	m.op(fpLoad, v, mode, m.mv(v, x))
	return x
}

func (m *canonMem) Store(v *Var, x uint64, mode Mode) {
	m.mem[v.ID] = x
	m.op(fpStore, v, mode, m.mv(v, x))
}

func (m *canonMem) Xchg(v *Var, x uint64, mode Mode) uint64 {
	old := m.mem[v.ID]
	m.mem[v.ID] = x
	m.op(fpXchg, v, mode, m.mv(v, old), m.mv(v, x))
	return old
}

func (m *canonMem) CmpXchg(v *Var, old, new uint64, mode Mode) (uint64, bool) {
	cur := m.mem[v.ID]
	ok := cur == old
	if ok {
		m.mem[v.ID] = new
	}
	okw := uint64(0)
	if ok {
		okw = 1
	}
	m.op(fpCmpXchg, v, mode, m.mv(v, cur), m.mv(v, old), m.mv(v, new), okw)
	return cur, ok
}

func (m *canonMem) FetchAdd(v *Var, delta uint64, mode Mode) uint64 {
	old := m.mem[v.ID]
	m.mem[v.ID] = old + delta
	// The delta itself is a difference, not a stored value, so under a
	// fold it is recorded via the value it produces — both endpoints map
	// cleanly.
	second := delta
	if m.spec != nil {
		second = m.mv(v, old+delta)
	}
	m.op(fpFetchAdd, v, mode, m.mv(v, old), second)
	return old
}

func (m *canonMem) Fence(mode Mode) {
	m.h.Word(uint64(fpFence)<<56 | uint64(mode)<<48)
}

func (m *canonMem) AwaitWhile(cond func() bool) {
	m.h.Word(uint64(fpAwaitEnter) << 56)
	for i := 0; ; i++ {
		if i >= awaitFingerprintCap {
			m.h.Word(uint64(fpAwaitSaturated) << 56)
			return
		}
		if !cond() {
			m.h.Word(uint64(fpAwaitExit)<<56 | uint64(i))
			return
		}
	}
}

func (m *canonMem) AwaitDo(body func() bool) {
	// Unlike AwaitWhile, abandoned AwaitDo iterations may have stored to
	// owned locations — but the trace records those stores before the
	// saturation marker, so the fingerprint stays deterministic either
	// way; saturation only cuts iterations that would repeat forever
	// under the sequential schedule.
	m.h.Word(uint64(fpAwaitDo) << 56)
	for i := 0; ; i++ {
		if i >= awaitFingerprintCap {
			m.h.Word(uint64(fpAwaitSaturated) << 56)
			return
		}
		if body() {
			m.h.Word(uint64(fpAwaitExit)<<56 | uint64(i))
			return
		}
	}
}

func (m *canonMem) Pause() {
	m.h.Word(uint64(fpPause) << 56)
}

// TID returns the real thread index (the closure must behave as in a
// real run); under a fold it also records the canonical slot: a
// symmetric program may use its tid only in ways the tags capture, and
// those fold mapped.
func (m *canonMem) TID() int {
	if m.perm != nil {
		m.h.Word(uint64(fpTID)<<56 | uint64(uint32(m.perm[m.tid])))
	}
	return m.tid
}

func (m *canonMem) Assert(ok bool, msg string) {
	okw := uint64(0)
	if ok {
		okw = 1
	}
	m.h.Word(uint64(fpAssert)<<56 | okw)
	m.h.String(msg)
}

// canonTrace folds one sequential execution under perm: the canonical
// variable section (unowned vars in allocation order, then each family
// as its name plus per-slot mapped initial values), then each thread's
// operation trace in canonical-slot order, then the final check's
// outcome on the resulting memory. For a valid spec the result is
// permutation-independent; under the identity permutation it doubles
// as the program's canonical fingerprint. With tb, spec and perm nil
// nothing is folded: every variable is unowned, threads run in index
// order, and the result is the plain structural fingerprint.
func canonTrace(vs *VarSet, tb *symTables, spec *graph.SymSpec, threads []ThreadFunc, final FinalCheck, perm []int32) graph.Hash128 {
	h := graph.NewHasher128()
	m := &canonMem{h: &h, mem: vs.Inits(), tb: tb, spec: spec, perm: perm}
	h.Word(uint64(fpVars)<<56 | uint64(len(vs.Vars)))
	for _, v := range vs.Vars {
		if tb != nil && tb.owner[v.ID] >= 0 {
			continue
		}
		h.String(v.Name)
		h.Word(m.mv(v, v.Init))
	}
	inv := make([]int32, len(threads)) // canonical slot -> thread
	for t := range inv {
		inv[t] = int32(t)
	}
	if tb != nil {
		for t, s := range perm {
			inv[s] = int32(t)
		}
		for f, name := range tb.famName {
			h.String(name)
			for slot := range perm {
				l := tb.famLoc[f][inv[slot]]
				if l < 0 {
					h.Word(0xfa111e55)
					continue
				}
				h.Word(1)
				h.Word(m.mv(vs.Vars[l], vs.Vars[l].Init))
			}
		}
	}
	h.Word(uint64(len(threads)))
	for slot, t := range inv {
		h.Word(uint64(fpThread)<<56 | uint64(slot))
		m.tid = int(t)
		threads[t](m)
	}
	if final != nil {
		ok, msg := final(func(v *Var) uint64 { return m.mem[v.ID] })
		okw := uint64(0)
		if ok {
			okw = 1
		}
		h.Word(uint64(fpFinalCheck)<<56 | okw)
		h.String(msg)
	}
	return h.Sum()
}
