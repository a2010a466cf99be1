// Package tlb implements a configurable set-associative TLB simulator with
// per-set LRU replacement, plus the two-level hierarchy (split L1 per page
// size, unified L2) described in Table 2 of the paper.
//
// The TLBs cache virtual-page-number -> page-size mappings. The simulator
// never needs the physical frame for correctness of the experiments (all
// decisions key off hit/miss behaviour), but entries carry the page size so
// that a promotion changes which structure caches the translation, and so
// shootdowns can invalidate precisely.
package tlb

import (
	"fmt"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
)

// Stats accumulates hit/miss counters for one TLB.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Invalidates uint64
}

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses / accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d (%.2f%% miss)", s.Hits, s.Misses, 100*s.MissRate())
}

// TLB is a single set-associative translation lookaside buffer for one or
// more page sizes. Sets are indexed by the low bits of the page number.
//
// Each way is one packed tag word, vpn<<2 | size code (see tagOf), next to
// a parallel LRU stamp. The ways-wide set scan is the innermost loop of the
// whole simulator: with the tag packed, a way compare is one load and one
// compare over one array, and a Table-2 L2 set (8 ways) is exactly one 64 B
// line. Code 0 marks an invalid way; invalidation clears only the code, so
// the way keeps its VPN bits, which State reports.
type TLB struct {
	name    string
	sets    int
	ways    int
	setMask uint64 // sets-1 when sets is a power of two, else 0

	tags []uint64 // sets*ways, set-major; code 0 = invalid way
	lrus []uint64 // higher = more recently used

	// mru is the tag of the most recently stamped entry (last Lookup hit
	// or fill). That entry is by construction the most recently used way
	// of its set, so a repeat Lookup can return a hit without the set scan
	// and without re-stamping: refreshing an already-MRU entry never
	// changes within-set LRU order, which keeps every replacement decision
	// — and therefore every simulation result — bit-identical. A size
	// code of 0 means no hint. mruWay is the way holding it, so the fast
	// path can still report where the entry lives; it is derived state,
	// recomputed by SetState rather than serialized.
	mru    uint64
	mruWay int

	tick  uint64
	stats Stats

	// OnEvict, when set, is called with each valid entry displaced by a
	// capacity replacement (not by invalidation). The victim-tracker
	// candidate source (§5.4.1 design alternative) hangs off this hook.
	OnEvict func(vpn mem.PageNum, size mem.PageSize)
}

// Size codes of a packed tag: SizeIndex+1, so 0 is free to mark an invalid
// way. codeSize and codeShift decode them.
var (
	codeSize  = [4]mem.PageSize{0, mem.Page4K, mem.Page2M, mem.Page1G}
	codeShift = [4]uint{0, 12, 21, 30}
)

// maxVPN bounds the page numbers a packed tag can carry (62 bits; a 4KB
// page number of a 64-bit address has 52).
const maxVPN = 1<<62 - 1

// tagOf packs a page number with size index si (see SizeIndex).
func tagOf(vpn mem.PageNum, si int) uint64 { return uint64(vpn)<<2 | uint64(si+1) }

// Config describes one TLB structure.
type Config struct {
	Name    string
	Entries int // total entries; must be divisible by Ways
	Ways    int // associativity; Ways == Entries means fully associative
}

// New builds a TLB from a config. It panics on invalid geometry because TLB
// shapes are static machine configuration, not runtime input.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: invalid geometry %d entries / %d ways", cfg.Entries, cfg.Ways))
	}
	t := &TLB{
		name: cfg.Name,
		sets: cfg.Entries / cfg.Ways,
		ways: cfg.Ways,
		tags: make([]uint64, cfg.Entries),
		lrus: make([]uint64, cfg.Entries),
	}
	if t.sets&(t.sets-1) == 0 {
		t.setMask = uint64(t.sets - 1)
	}
	return t
}

// Name returns the configured display name.
func (t *TLB) Name() string { return t.name }

// Entries returns total capacity.
func (t *TLB) Entries() int { return t.sets * t.ways }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters but keeps contents.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// set returns the index of tag's first way.
func (t *TLB) set(tag uint64) int {
	vpn := tag >> 2
	// Every realistic geometry has a power-of-two set count, so the hot
	// path is a mask; the modulo covers odd test geometries.
	if t.setMask != 0 || t.sets == 1 {
		return int(vpn&t.setMask) * t.ways
	}
	return int(vpn%uint64(t.sets)) * t.ways
}

// probe is the one set scan and victim choice. It returns the way holding
// tag and true, or the way a fill of tag must replace and false: the first
// invalid way, else the first least-recently-used one. One pass computes
// both without an early exit, so the only data-dependent choices are
// conditional moves: a set holds a tag at most once, and an invalid way
// ranks older than every valid one (age 0; valid ways rank by stamp+1,
// and a stamp, being a tick value, never reaches the top of uint64).
func (t *TLB) probe(tag uint64) (int, bool) {
	base := t.set(tag)
	tags := t.tags[base : base+t.ways]
	lrus := t.lrus[base : base+t.ways][:len(tags)]
	hit, victim, oldest := -1, 0, ^uint64(0)
	for i, w := range tags {
		if w == tag {
			hit = i
		}
		age := lrus[i] + 1
		if w&3 == 0 {
			age = 0
		}
		if age < oldest {
			victim, oldest = i, age
		}
	}
	if hit >= 0 {
		return base + hit, true
	}
	return base + victim, false
}

// lookup probes for tag, refreshing its recency on a hit. On a miss it
// returns the way a fill of tag must replace, valid until the set changes.
func (t *TLB) lookup(tag uint64) (int, bool) {
	if tag == t.mru {
		// MRU fast path: the entry was the last one stamped, so it is
		// still the most recently used way of its set and re-stamping it
		// would not change LRU order. Count the hit and skip the scan.
		t.stats.Hits++
		return t.mruWay, true
	}
	t.tick++
	way, hit := t.probe(tag)
	if hit {
		t.lrus[way] = t.tick
		t.stats.Hits++
		t.mru, t.mruWay = tag, way
		return way, true
	}
	t.stats.Misses++
	return way, false
}

// fill writes tag into way, which a probe of tag's unchanged set returned
// as its victim, counting (and reporting) a capacity eviction when the way
// held a valid entry. The new entry becomes MRU.
func (t *TLB) fill(way int, tag uint64) {
	t.tick++
	if old := t.tags[way]; old&3 != 0 {
		t.stats.Evictions++
		if t.OnEvict != nil {
			t.OnEvict(mem.PageNum(old>>2), codeSize[old&3])
		}
	}
	t.tags[way] = tag
	t.lrus[way] = t.tick
	t.mru, t.mruWay = tag, way
}

// stamp refreshes the recency of way, which must hold tag, exactly as a
// lookup hit on it would, without counting the hit. It reports false, and
// changes nothing, when the way holds any other tag.
func (t *TLB) stamp(way int, tag uint64) bool {
	if t.tags[way] != tag {
		return false
	}
	if tag != t.mru {
		t.tick++
		t.lrus[way] = t.tick
		t.mru, t.mruWay = tag, way
	}
	return true
}

// Lookup probes the TLB for (vpn, size). On a hit the entry's recency is
// refreshed. It does not insert on miss; use Insert for that, so that the
// hierarchy controls fill policy.
func (t *TLB) Lookup(vpn mem.PageNum, size mem.PageSize) bool {
	_, hit := t.lookup(tagOf(vpn, SizeIndex(size)))
	return hit
}

// Insert fills (vpn, size), evicting the LRU way of the set if needed.
// Re-inserting an existing entry refreshes it in place.
func (t *TLB) Insert(vpn mem.PageNum, size mem.PageSize) {
	tag := tagOf(vpn, SizeIndex(size))
	way, hit := t.probe(tag)
	if !hit {
		t.fill(way, tag)
		return
	}
	t.tick++
	t.lrus[way] = t.tick
	t.mru, t.mruWay = tag, way
}

// CountHit records n hits established outside the structure, without
// scanning or re-stamping. The caller guarantees each counted access hit
// an entry that was already stamped (the vmm translation table restamps
// through StampL1 and counts here), so the counters alone are missing.
func (t *TLB) CountHit(n uint64) { t.stats.Hits += n }

// Contains reports whether (vpn, size) is cached, without touching LRU
// state or statistics (a diagnostic probe, not a lookup).
func (t *TLB) Contains(vpn mem.PageNum, size mem.PageSize) bool {
	_, hit := t.probe(tagOf(vpn, SizeIndex(size)))
	return hit
}

// InvalidatePage removes the translation for (vpn, size) if present,
// returning whether an entry was dropped. This models a single-page
// shootdown (INVLPG).
func (t *TLB) InvalidatePage(vpn mem.PageNum, size mem.PageSize) bool {
	tag := tagOf(vpn, SizeIndex(size))
	way, hit := t.probe(tag)
	if !hit {
		return false
	}
	t.tags[way] &^= 3
	if tag == t.mru {
		t.mru &^= 3
	}
	t.stats.Invalidates++
	return true
}

// InvalidateRange removes every entry whose page overlaps the virtual range,
// at any page size the structure holds. It returns the number of entries
// dropped. This is the shootdown used during promotion: all 4KB entries
// within the promoted 2MB region must go.
func (t *TLB) InvalidateRange(r mem.Range) int {
	n := 0
	for i, tag := range t.tags {
		code := tag & 3
		if code == 0 {
			continue
		}
		base := mem.VirtAddr(tag >> 2 << codeShift[code])
		pr := mem.Range{Start: base, End: base + mem.VirtAddr(uint64(codeSize[code]))}
		if pr.Overlaps(r) {
			t.tags[i] = tag &^ 3
			n++
		}
	}
	if n > 0 {
		// Conservatively drop the MRU hint: the stamped entry may be gone.
		t.mru &^= 3
	}
	t.stats.Invalidates += uint64(n)
	return n
}

// Flush invalidates every entry.
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] &^= 3
	}
	t.mru &^= 3
}

// Occupancy returns the number of valid entries (useful in tests).
func (t *TLB) Occupancy() int {
	n := 0
	for _, tag := range t.tags {
		if tag&3 != 0 {
			n++
		}
	}
	return n
}

// VisitValid calls fn for every valid entry without perturbing LRU state or
// statistics. The invariant auditor and property tests use this to check
// that no stale translation survives a shootdown.
func (t *TLB) VisitValid(fn func(vpn mem.PageNum, size mem.PageSize)) {
	for _, tag := range t.tags {
		if tag&3 != 0 {
			fn(mem.PageNum(tag>>2), codeSize[tag&3])
		}
	}
}

// Publish adds the TLB's counters into s under prefix ("prefix.hits", ...).
func (t *TLB) Publish(s obs.Snapshot, prefix string) {
	s.Add(prefix+".hits", float64(t.stats.Hits))
	s.Add(prefix+".misses", float64(t.stats.Misses))
	s.Add(prefix+".evictions", float64(t.stats.Evictions))
	s.Add(prefix+".invalidates", float64(t.stats.Invalidates))
}
