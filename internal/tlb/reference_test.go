package tlb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pccsim/internal/mem"
)

// This file keeps the two-array TLB (parallel vpn/size/lru slices, size 0 =
// invalid way) and the Access → walk → Fill hierarchy that the packed-tag
// TLB and the fused Translate replaced. They are an independent oracle: the
// production structures must reproduce their every hit, miss, LRU stamp,
// tick, counter and eviction-hook call.

type oracleTLB struct {
	sets    int
	ways    int
	setMask uint64

	vpns  []mem.PageNum
	sizes []mem.PageSize
	lrus  []uint64

	mruVPN  mem.PageNum
	mruSize mem.PageSize

	tick  uint64
	stats Stats

	OnEvict func(vpn mem.PageNum, size mem.PageSize)
}

func newOracleTLB(cfg Config) *oracleTLB {
	t := &oracleTLB{
		sets:  cfg.Entries / cfg.Ways,
		ways:  cfg.Ways,
		vpns:  make([]mem.PageNum, cfg.Entries),
		sizes: make([]mem.PageSize, cfg.Entries),
		lrus:  make([]uint64, cfg.Entries),
	}
	if t.sets&(t.sets-1) == 0 {
		t.setMask = uint64(t.sets - 1)
	}
	return t
}

func (t *oracleTLB) setIndex(vpn mem.PageNum) int {
	if t.setMask != 0 || t.sets == 1 {
		return int(uint64(vpn) & t.setMask)
	}
	return int(uint64(vpn) % uint64(t.sets))
}

func (t *oracleTLB) Lookup(vpn mem.PageNum, size mem.PageSize) bool {
	if vpn == t.mruVPN && size == t.mruSize {
		t.stats.Hits++
		return true
	}
	t.tick++
	base := t.setIndex(vpn) * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.vpns[i] == vpn && t.sizes[i] == size {
			t.lrus[i] = t.tick
			t.stats.Hits++
			t.mruVPN, t.mruSize = vpn, size
			return true
		}
	}
	t.stats.Misses++
	return false
}

func (t *oracleTLB) Insert(vpn mem.PageNum, size mem.PageSize) {
	t.tick++
	base := t.setIndex(vpn) * t.ways
	vpns := t.vpns[base : base+t.ways]
	sizes := t.sizes[base : base+t.ways]
	lrus := t.lrus[base : base+t.ways]
	victim := 0
	for i := range vpns {
		if vpns[i] == vpn && sizes[i] == size {
			lrus[i] = t.tick
			t.mruVPN, t.mruSize = vpn, size
			return
		}
		if sizes[i] == 0 {
			for j := i + 1; j < len(vpns); j++ {
				if vpns[j] == vpn && sizes[j] == size {
					lrus[j] = t.tick
					t.mruVPN, t.mruSize = vpn, size
					return
				}
			}
			t.fill(base+i, vpn, size)
			return
		}
		if lrus[i] < lrus[victim] {
			victim = i
		}
	}
	t.stats.Evictions++
	if t.OnEvict != nil {
		t.OnEvict(vpns[victim], sizes[victim])
	}
	t.fill(base+victim, vpn, size)
}

func (t *oracleTLB) fill(i int, vpn mem.PageNum, size mem.PageSize) {
	t.vpns[i] = vpn
	t.sizes[i] = size
	t.lrus[i] = t.tick
	t.mruVPN, t.mruSize = vpn, size
}

func (t *oracleTLB) InvalidatePage(vpn mem.PageNum, size mem.PageSize) bool {
	base := t.setIndex(vpn) * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.vpns[i] == vpn && t.sizes[i] == size {
			t.sizes[i] = 0
			if vpn == t.mruVPN && size == t.mruSize {
				t.mruSize = 0
			}
			t.stats.Invalidates++
			return true
		}
	}
	return false
}

func (t *oracleTLB) InvalidateRange(r mem.Range) int {
	n := 0
	for i := range t.sizes {
		size := t.sizes[i]
		if size == 0 {
			continue
		}
		base := mem.VirtAddr(uint64(t.vpns[i]) << size.Shift())
		pr := mem.Range{Start: base, End: base + mem.VirtAddr(uint64(size))}
		if pr.Overlaps(r) {
			t.sizes[i] = 0
			n++
		}
	}
	if n > 0 {
		t.mruSize = 0
	}
	t.stats.Invalidates += uint64(n)
	return n
}

func (t *oracleTLB) Flush() {
	for i := range t.sizes {
		t.sizes[i] = 0
	}
	t.mruSize = 0
}

func (t *oracleTLB) State() State {
	return State{
		VPNs:    append([]mem.PageNum(nil), t.vpns...),
		Sizes:   append([]mem.PageSize(nil), t.sizes...),
		LRUs:    append([]uint64(nil), t.lrus...),
		MRUVPN:  t.mruVPN,
		MRUSize: t.mruSize,
		Tick:    t.tick,
		Stats:   t.stats,
	}
}

func (t *oracleTLB) SetState(s State) {
	copy(t.vpns, s.VPNs)
	copy(t.sizes, s.Sizes)
	copy(t.lrus, s.LRUs)
	t.mruVPN, t.mruSize = s.MRUVPN, s.MRUSize
	t.tick = s.Tick
	t.stats = s.Stats
}

// oracleHierarchy is the Access/Fill hierarchy: a miss returns to the
// caller, which walks and then calls Fill (L2 first, then L1).
type oracleHierarchy struct {
	l1        [3]*oracleTLB
	l2        *oracleTLB
	l2Holds1G bool
	accesses  uint64
	walks     uint64
}

func newOracleHierarchy(cfg HierarchyConfig) *oracleHierarchy {
	return &oracleHierarchy{
		l1:        [3]*oracleTLB{newOracleTLB(cfg.L1D4K), newOracleTLB(cfg.L1D2M), newOracleTLB(cfg.L1D1G)},
		l2:        newOracleTLB(cfg.L2),
		l2Holds1G: cfg.L2Holds1G,
	}
}

func (h *oracleHierarchy) Access(a mem.VirtAddr, size mem.PageSize) Result {
	h.accesses++
	vpn := mem.PageNumber(a, size)
	l1 := h.l1[SizeIndex(size)]
	if l1.Lookup(vpn, size) {
		return HitL1
	}
	if size != mem.Page1G || h.l2Holds1G {
		if h.l2.Lookup(vpn, size) {
			l1.Insert(vpn, size)
			return HitL2
		}
	}
	h.walks++
	return Miss
}

func (h *oracleHierarchy) Fill(a mem.VirtAddr, size mem.PageSize) {
	vpn := mem.PageNumber(a, size)
	if size != mem.Page1G || h.l2Holds1G {
		h.l2.Insert(vpn, size)
	}
	h.l1[SizeIndex(size)].Insert(vpn, size)
}

func (h *oracleHierarchy) Shootdown(r mem.Range) int {
	n := 0
	for _, t := range h.l1 {
		n += t.InvalidateRange(r)
	}
	return n + h.l2.InvalidateRange(r)
}

func (h *oracleHierarchy) Flush() {
	for _, t := range h.l1 {
		t.Flush()
	}
	h.l2.Flush()
}

func (h *oracleHierarchy) State() HierarchyState {
	return HierarchyState{
		L1D4K: h.l1[0].State(), L1D2M: h.l1[1].State(), L1D1G: h.l1[2].State(),
		L2: h.l2.State(), Accesses: h.accesses, Walks: h.walks,
	}
}

func (h *oracleHierarchy) SetState(s HierarchyState) {
	h.l1[0].SetState(s.L1D4K)
	h.l1[1].SetState(s.L1D2M)
	h.l1[2].SetState(s.L1D1G)
	h.l2.SetState(s.L2)
	h.accesses, h.walks = s.Accesses, s.Walks
}

// eviction is one OnEvict call, tagged with the level that made it.
type eviction struct {
	level string
	vpn   mem.PageNum
	size  mem.PageSize
}

type evictLog []eviction

func (l *evictLog) hook(level string) func(mem.PageNum, mem.PageSize) {
	return func(vpn mem.PageNum, size mem.PageSize) {
		*l = append(*l, eviction{level, vpn, size})
	}
}

// refOp describes one step of the random sequence for failure messages.
type refOp struct {
	kind string
	a, b uint64
	size mem.PageSize
}

func (o refOp) String() string { return fmt.Sprintf("%s(%#x, %#x, %v)", o.kind, o.a, o.b, o.size) }

// stampL1 is the reference for StampL1 followed by a one-hit
// CountL1HitsIndexed: a Lookup when way holds the translation, else a no-op.
func (h *oracleHierarchy) stampL1(si, way int, vpn mem.PageNum, size mem.PageSize) bool {
	l1 := h.l1[si]
	if !l1.holds(way, vpn, size) {
		return false
	}
	h.accesses++
	l1.Lookup(vpn, size)
	return true
}

// holds reports whether way i holds the translation (vpn, size).
func (t *oracleTLB) holds(i int, vpn mem.PageNum, size mem.PageSize) bool {
	return t.vpns[i] == vpn && t.sizes[i] == size
}

// TestHierarchyMatchesReference drives the packed-tag hierarchy and the
// two-array oracle with the same random operations — translations (with the
// oracle's Access → Fill on a miss), L1 restamps of ways earlier
// translations returned, single-page invalidations at every level, range
// shootdowns, flushes and State/SetState round trips — and requires the
// same Result, a deeply equal HierarchyState (LRU stamps and ticks
// included) and the same eviction-hook sequence after every step. The way
// a translation returns must hold it afterwards.
func TestHierarchyMatchesReference(t *testing.T) {
	table2 := DefaultHierarchyConfig()
	div4 := table2 // the experiments' TLBDivisor 4 shrink
	for _, c := range []*Config{&div4.L1D4K, &div4.L1D2M, &div4.L1D1G, &div4.L2} {
		c.Entries /= 4
		if c.Entries < c.Ways {
			c.Entries = c.Ways
		}
	}
	odd := HierarchyConfig{
		L1D4K: Config{Name: "L1D-4K", Entries: 12, Ways: 4}, // 3 sets
		L1D2M: Config{Name: "L1D-2M", Entries: 10, Ways: 2}, // 5 sets
		L1D1G: Config{Name: "L1D-1G", Entries: 3, Ways: 1},  // 3 sets
		L2:    Config{Name: "L2", Entries: 42, Ways: 6},     // 7 sets
	}
	oneWay := HierarchyConfig{
		L1D4K: Config{Name: "L1D-4K", Entries: 16, Ways: 1},
		L1D2M: Config{Name: "L1D-2M", Entries: 8, Ways: 1},
		L1D1G: Config{Name: "L1D-1G", Entries: 2, Ways: 1},
		L2:    Config{Name: "L2", Entries: 64, Ways: 1},
	}
	fullyAssoc := HierarchyConfig{
		L1D4K: Config{Name: "L1D-4K", Entries: 8, Ways: 8},
		L1D2M: Config{Name: "L1D-2M", Entries: 4, Ways: 4},
		L1D1G: Config{Name: "L1D-1G", Entries: 2, Ways: 2},
		L2:    Config{Name: "L2", Entries: 24, Ways: 24},
	}
	geoms := map[string]HierarchyConfig{
		"table2": table2, "div4": div4, "odd": odd, "1way": oneWay, "fullassoc": fullyAssoc,
	}
	for name, base := range geoms {
		for _, holds1G := range []bool{false, true} {
			cfg := base
			cfg.L2Holds1G = holds1G
			t.Run(fmt.Sprintf("%s/l2holds1g=%v", name, holds1G), func(t *testing.T) {
				runHierarchyVsReference(t, cfg, int64(len(name))*7+boolSeed(holds1G))
			})
		}
	}
}

func boolSeed(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func runHierarchyVsReference(t *testing.T, cfg HierarchyConfig, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := NewHierarchy(cfg)
	o := newOracleHierarchy(cfg)
	var got, want evictLog
	levels := []string{"l1d4k", "l1d2m", "l1d1g"}
	for i := range h.l1 {
		h.l1[i].OnEvict = got.hook(levels[i])
		o.l1[i].OnEvict = want.hook(levels[i])
	}
	h.l2.OnEvict = got.hook("l2")
	o.l2.OnEvict = want.hook("l2")

	sizes := []mem.PageSize{mem.Page4K, mem.Page4K, mem.Page4K, mem.Page2M, mem.Page1G}
	// A third of the addresses come from a hot pool of 64 4KB pages
	// (repeat hits, the MRU hint), the rest from 32 MB at the bottom of
	// four 1GB pages: enough 4KB pages to overflow a Table-2 L2, few
	// enough 2MB and 1GB pages that those hit too.
	addr := func() mem.VirtAddr {
		if rng.Intn(3) == 0 {
			return mem.VirtAddr(rng.Intn(64)) << 12
		}
		return mem.VirtAddr(rng.Intn(4))<<30 | mem.VirtAddr(rng.Intn(1<<13))<<12
	}
	// ways remembers the (page, way) pairs of recent translations, which
	// the StampL1 op replays — by then some were evicted or invalidated.
	type wayRef struct {
		vpn  mem.PageNum
		size mem.PageSize
		way  int
	}
	var ways [16]wayRef
	var saved []HierarchyState
	walks, seen, stamped, stale := 0, 0, 0, 0
	for op := 0; op < 6000; op++ {
		size := sizes[rng.Intn(len(sizes))]
		a := addr()
		var desc refOp
		switch k := rng.Intn(1000); {
		case k < 830:
			desc = refOp{"Translate", uint64(a), 0, size}
			vpn, si := mem.PageNumber(a, size), SizeIndex(size)
			r, way := h.Translate(vpn, si)
			w := o.Access(a, size)
			if w == Miss {
				o.Fill(a, size)
				walks++
			}
			if r != w {
				t.Fatalf("op %d %s = %v, reference %v", op, desc, r, w)
			}
			if r == Miss && !h.Present(a, size) {
				t.Fatalf("op %d %s: missed translation not installed", op, desc)
			}
			if !o.l1[si].holds(way, vpn, size) {
				t.Fatalf("op %d %s returned way %d, which does not hold the translation", op, desc, way)
			}
			ways[op%len(ways)] = wayRef{vpn, size, way}
		case k < 880:
			ref := ways[rng.Intn(len(ways))]
			if ref.size == 0 {
				continue
			}
			desc = refOp{"StampL1", uint64(ref.vpn), uint64(ref.way), ref.size}
			si := SizeIndex(ref.size)
			g := h.StampL1(si, ref.way, ref.vpn)
			if g {
				h.CountL1HitsIndexed(si, 1)
				stamped++
			} else {
				stale++
			}
			if w := o.stampL1(si, ref.way, ref.vpn, ref.size); g != w {
				t.Fatalf("op %d %s = %v, reference %v", op, desc, g, w)
			}
		case k < 940:
			vpn := mem.PageNumber(a, size)
			l1 := SizeIndex(size)
			if rng.Intn(2) == 0 {
				desc = refOp{"L1.InvalidatePage", uint64(vpn), 0, size}
				if g, w := h.l1[l1].InvalidatePage(vpn, size), o.l1[l1].InvalidatePage(vpn, size); g != w {
					t.Fatalf("op %d %s = %v, reference %v", op, desc, g, w)
				}
			} else {
				desc = refOp{"L2.InvalidatePage", uint64(vpn), 0, size}
				if g, w := h.l2.InvalidatePage(vpn, size), o.l2.InvalidatePage(vpn, size); g != w {
					t.Fatalf("op %d %s = %v, reference %v", op, desc, g, w)
				}
			}
		case k < 970:
			start := mem.PageBase(a, mem.Page4K)
			r := mem.Range{Start: start, End: start + mem.VirtAddr(1+rng.Intn(64))<<12}
			desc = refOp{"Shootdown", uint64(r.Start), uint64(r.End), 0}
			if g, w := h.Shootdown(r), o.Shootdown(r); g != w {
				t.Fatalf("op %d %s = %d, reference %d", op, desc, g, w)
			}
		case k < 971:
			desc = refOp{kind: "Flush"}
			h.Flush()
			o.Flush()
		case k < 985:
			desc = refOp{kind: "State"}
			saved = append(saved, h.State())
		default:
			if len(saved) == 0 {
				continue
			}
			// Restore one of the last few captured states into both: the
			// production side through SetState's validation, the oracle
			// verbatim. (An old, emptier state would keep the L2 cold.)
			s := saved[len(saved)-1-rng.Intn(min(len(saved), 4))]
			desc = refOp{kind: "SetState"}
			if err := h.SetState(s); err != nil {
				t.Fatalf("op %d SetState of own State: %v", op, err)
			}
			o.SetState(s)
		}
		if g, w := h.State(), o.State(); !reflect.DeepEqual(g, w) {
			t.Fatalf("op %d %s: state diverged from reference\n got %+v\nwant %+v", op, desc, g, w)
		}
		// Both logs only grow: compare what this step appended.
		if len(got) != len(want) || !reflect.DeepEqual(got[seen:], want[seen:]) {
			t.Fatalf("op %d %s: eviction hooks diverged\n got %v\nwant %v", op, desc, got[seen:], want[seen:])
		}
		seen = len(got)
	}
	var l1Evictions, l2Evictions int
	for _, e := range got {
		switch e.level {
		case "l1d4k":
			l1Evictions++
		case "l2":
			l2Evictions++
		}
	}
	if walks < 100 || l1Evictions < 100 || l2Evictions < 20 || stamped < 100 || stale < 20 {
		t.Fatalf("sequence too tame: %d walks, %d L1-4K and %d L2 evictions, %d restamps, %d stale ways",
			walks, l1Evictions, l2Evictions, stamped, stale)
	}
}

// TestSetStateRestoresMRUWay: the MRU hint's way is not part of State, so
// SetState must recompute it. A structure restored from a state whose MRU
// entry sits in a nonzero way must report that way from the MRU fast path,
// and the way must accept a restamp.
func TestSetStateRestoresMRUWay(t *testing.T) {
	src := NewHierarchy(DefaultHierarchyConfig())
	// Three pages of one L1-4K set (16 sets): the last fills way 2 and is
	// the MRU entry.
	for _, vpn := range []mem.PageNum{5, 21, 37} {
		src.Translate(vpn, 0)
	}
	h := NewHierarchy(DefaultHierarchyConfig())
	h.Translate(99, 0) // a stale hint at another way of the fresh structure
	if err := h.SetState(src.State()); err != nil {
		t.Fatal(err)
	}
	r, way := h.Translate(37, 0)
	if r != HitL1 || way != 5*4+2 {
		t.Fatalf("Translate of the restored MRU entry = (%v, way %d), want (L1 hit, way %d)", r, way, 5*4+2)
	}
	if !h.StampL1(0, way, 37) {
		t.Fatal("StampL1 refused the way Translate returned for the restored MRU entry")
	}
	if !reflect.DeepEqual(h.State().L1D4K.LRUs, src.State().L1D4K.LRUs) {
		t.Error("restamping the MRU entry changed LRU stamps")
	}
}
