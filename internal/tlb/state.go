package tlb

import (
	"fmt"

	"pccsim/internal/mem"
)

// State is the serializable mutable state of one TLB: the entries (page
// number, page size — 0 for an invalid way — and LRU stamp per way, in
// set-major order), the MRU hint, the LRU clock, and the counters. Geometry
// (sets, ways, name) is configuration, not state — a restore target must be
// built from the same Config, and SetState validates the array lengths
// against the receiver's geometry so a snapshot can never be poured into a
// mismatched structure.
type State struct {
	VPNs    []mem.PageNum
	Sizes   []mem.PageSize
	LRUs    []uint64
	MRUVPN  mem.PageNum
	MRUSize mem.PageSize
	Tick    uint64
	Stats   Stats
}

// State returns a deep copy of the TLB's mutable state.
func (t *TLB) State() State {
	s := State{
		VPNs:    make([]mem.PageNum, len(t.tags)),
		Sizes:   make([]mem.PageSize, len(t.tags)),
		LRUs:    append([]uint64(nil), t.lrus...),
		MRUVPN:  mem.PageNum(t.mru >> 2),
		MRUSize: codeSize[t.mru&3],
		Tick:    t.tick,
		Stats:   t.stats,
	}
	for i, tag := range t.tags {
		s.VPNs[i], s.Sizes[i] = mem.PageNum(tag>>2), codeSize[tag&3]
	}
	return s
}

// packState packs one (page number, size) pair of a State into a tag.
func packState(vpn mem.PageNum, size mem.PageSize) (uint64, bool) {
	if vpn > maxVPN {
		return 0, false
	}
	if size == 0 {
		return uint64(vpn) << 2, true
	}
	if !size.Valid() {
		return 0, false
	}
	return tagOf(vpn, SizeIndex(size)), true
}

// SetState overwrites the TLB's mutable state from a snapshot taken on an
// identically configured structure. It deep-copies the slices so the caller
// may keep or mutate the State afterwards. A state whose entries a tag
// cannot hold (an unknown page size, a page number above 62 bits) is
// refused and leaves the TLB unchanged.
func (t *TLB) SetState(s State) error {
	n := t.sets * t.ways
	if len(s.VPNs) != n || len(s.Sizes) != n || len(s.LRUs) != n {
		return fmt.Errorf("tlb %q: state has %d/%d/%d entries, structure holds %d",
			t.name, len(s.VPNs), len(s.Sizes), len(s.LRUs), n)
	}
	mru, ok := packState(s.MRUVPN, s.MRUSize)
	if !ok {
		return fmt.Errorf("tlb %q: state has an invalid MRU entry (%d, %d)", t.name, s.MRUVPN, uint64(s.MRUSize))
	}
	tags := make([]uint64, n)
	for i := range tags {
		if tags[i], ok = packState(s.VPNs[i], s.Sizes[i]); !ok {
			return fmt.Errorf("tlb %q: state entry %d (%d, %d) is not a TLB entry",
				t.name, i, s.VPNs[i], uint64(s.Sizes[i]))
		}
	}
	t.tags = tags
	copy(t.lrus, s.LRUs)
	t.mru = mru
	t.mruWay, _ = t.probe(mru)
	t.tick = s.Tick
	t.stats = s.Stats
	return nil
}

// HierarchyState bundles the five TLB states of one core's hierarchy plus
// the hierarchy-level counters.
type HierarchyState struct {
	L1D4K    State
	L1D2M    State
	L1D1G    State
	L2       State
	Accesses uint64
	Walks    uint64
}

// State returns a deep copy of the hierarchy's mutable state.
func (h *Hierarchy) State() HierarchyState {
	return HierarchyState{
		L1D4K:    h.l1[0].State(),
		L1D2M:    h.l1[1].State(),
		L1D1G:    h.l1[2].State(),
		L2:       h.l2.State(),
		Accesses: h.accesses,
		Walks:    h.walks,
	}
}

// SetState restores the hierarchy from a snapshot taken on an identically
// configured hierarchy.
func (h *Hierarchy) SetState(s HierarchyState) error {
	if err := h.l1[0].SetState(s.L1D4K); err != nil {
		return err
	}
	if err := h.l1[1].SetState(s.L1D2M); err != nil {
		return err
	}
	if err := h.l1[2].SetState(s.L1D1G); err != nil {
		return err
	}
	if err := h.l2.SetState(s.L2); err != nil {
		return err
	}
	h.accesses = s.Accesses
	h.walks = s.Walks
	return nil
}
