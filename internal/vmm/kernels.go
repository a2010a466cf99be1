package vmm

import (
	"fmt"

	"pccsim/internal/mem"
	"pccsim/internal/ptw"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
)

// This file holds the monomorphized tick-free segment kernels: the
// specialized inner loops runSeg dispatches single-core segments to.
//
// Each machine classifies its per-access pipeline once, at build time, by
// the dimensions that can change the per-access body — and by construction
// that set is small:
//
//   - PTW MLP on/off and NUMA on/off select the full-translation routine
//     (stepFullFast drops both checks plus the config-pointer chases; the
//     generic stepFull keeps them). MLP additionally decides whether
//     filter-served hit runs must break a walk burst, which the flush of a
//     hit run re-checks once per run, never per access.
//   - Policy kind (via the BaseFaultOnly seam) selects the fault dispatch
//     when a machine is built (machine.fault), and with it whether a
//     mid-segment access can ever promote, shoot down, or invalidate the
//     table — the kernels re-read the register line after every full step
//     precisely because a non-base policy's fault may have cleared it.
//   - Pressure on/off never appears in a kernel: the pressure model runs
//     exclusively at policy-tick epoch barriers, which are segment
//     boundaries, so the classification proves its absence from the body.
//   - Live vs block-replay source selects the drain loop feeding segments
//     (buffered NextBatch vs zero-copy NextBlock; see RunUntil); both
//     produce plain []trace.Access segments, so the kernels themselves are
//     shared.
//
// The resulting per-access body carries zero interface calls and no
// re-checked configuration branches: a register-line hit is one compare and
// one float add; a translation-table hit is one direct-mapped probe plus
// the restamp of the L1 way it names. All integer bookkeeping for a hit
// run is deferred and flushed before the next full step (or segment end),
// while Cycles stays a per-access float add in original order so
// accumulated runtimes are bit-identical.
type segKernel func(ex *executor, c *Core, p *Process, seg []trace.Access)

// noVPN is the register-line sentinel: no valid 4KB page number reaches it
// (virtual addresses are < 2^48, so VPNs are < 2^36), which turns the
// "filter armed?" check into the same compare that detects a page change.
const noVPN = ^mem.PageNum(0)

// pickKernel resolves the machine's segment kernel from the configuration
// dimensions that change the per-access body.
func pickKernel(cfg Config) segKernel {
	if cfg.PTWMLPWidth > 1 || cfg.NUMA.Nodes > 1 {
		return segGeneric
	}
	return segFast
}

// segFast is the kernel for the common configuration — no NUMA penalties,
// no PTW MLP model: full steps go through stepFullFast, which reads only
// executor-cached cost-model fields.
func segFast(ex *executor, c *Core, p *Process, seg []trace.Access) {
	proc := int32(p.ID)
	var hits uint64
	var hitSI int
	runVPN := noVPN
	var runCost float64
	if c.l0Has && c.l0Proc == proc {
		runVPN, runCost, hitSI = c.l0Page4K, c.l0Cost, int(c.l0SI)
	}
	// Cycles lives in a register across the segment: the additions happen
	// in exactly the per-access order (so float accumulation stays
	// bit-identical), only the load/store per access is hoisted. It is
	// written back around every full step, which mutates c.Cycles itself.
	cyc := c.Cycles
	for i := range seg {
		addr := seg[i].Addr
		vpn := mem.PageNum(addr >> 12)
		if vpn == runVPN {
			cyc += runCost
			hits++
			continue
		}
		if hits > 0 {
			ex.flushL0Hits(c, hitSI, hits)
			hits = 0
		}
		if s := c.tt.slot4K(vpn); s.gen == c.tt.gen && s.page == vpn && s.proc == proc &&
			c.TLB.StampL1(0, int(s.way), vpn) {
			// Table 4K hit: the L1 way still holds the page and has been
			// restamped; start a new same-page run without re-entering
			// the full pipeline.
			cyc += s.cost
			hits = 1
			hitSI, runVPN, runCost = 0, vpn, s.cost
			continue
		}
		hpn := mem.PageNum(addr >> 21)
		if s := c.tt.slot2M(hpn); s.gen == c.tt.gen && s.page == hpn && s.proc == proc &&
			c.TLB.StampL1(1, int(s.way), hpn) {
			// Table 2M hit: an L1-2M hit served without the pipeline.
			// The access lands on a different 4KB page than the arming
			// access, so its touched bit (the bloat metric's input)
			// still needs recording.
			v := p.vmaOf(addr)
			v.touched[uint64(addr-v.r.Start)>>12] = true
			cyc += s.cost
			hits = 1
			hitSI, runVPN, runCost = 1, vpn, s.cost
			continue
		}
		c.Cycles = cyc
		ex.stepFullFast(c, p, addr)
		cyc = c.Cycles
		// The full step re-arms the register line for its own access (and
		// a fault may have cleared it), so re-read it.
		if c.l0Has && c.l0Proc == proc {
			hitSI, runVPN, runCost = int(c.l0SI), c.l0Page4K, c.l0Cost
		} else {
			runVPN = noVPN
		}
	}
	c.Cycles = cyc
	if hits > 0 {
		ex.flushL0Hits(c, hitSI, hits)
	}
	if runVPN != noVPN {
		// Keep the register line pointing at the run we ended on, so the
		// next segment (or a multi-core step) resumes from it.
		c.l0Has, c.l0SI, c.l0Proc, c.l0Page4K, c.l0Cost = true, int8(hitSI), proc, runVPN, runCost
	}
}

// segGeneric is the kernel for machines with NUMA penalties or the PTW MLP
// model: the hit paths are identical to segFast (table hits reuse the armed
// cost, which already folds the per-region NUMA penalty in), and full steps
// go through the generic stepFull.
func segGeneric(ex *executor, c *Core, p *Process, seg []trace.Access) {
	proc := int32(p.ID)
	var hits uint64
	var hitSI int
	runVPN := noVPN
	var runCost float64
	if c.l0Has && c.l0Proc == proc {
		runVPN, runCost, hitSI = c.l0Page4K, c.l0Cost, int(c.l0SI)
	}
	cyc := c.Cycles
	for i := range seg {
		addr := seg[i].Addr
		vpn := mem.PageNum(addr >> 12)
		if vpn == runVPN {
			cyc += runCost
			hits++
			continue
		}
		if hits > 0 {
			ex.flushL0Hits(c, hitSI, hits)
			hits = 0
		}
		if s := c.tt.slot4K(vpn); s.gen == c.tt.gen && s.page == vpn && s.proc == proc &&
			c.TLB.StampL1(0, int(s.way), vpn) {
			cyc += s.cost
			hits = 1
			hitSI, runVPN, runCost = 0, vpn, s.cost
			continue
		}
		hpn := mem.PageNum(addr >> 21)
		if s := c.tt.slot2M(hpn); s.gen == c.tt.gen && s.page == hpn && s.proc == proc &&
			c.TLB.StampL1(1, int(s.way), hpn) {
			v := p.vmaOf(addr)
			v.touched[uint64(addr-v.r.Start)>>12] = true
			cyc += s.cost
			hits = 1
			hitSI, runVPN, runCost = 1, vpn, s.cost
			continue
		}
		c.Cycles = cyc
		ex.stepFull(c, p, addr)
		cyc = c.Cycles
		if c.l0Has && c.l0Proc == proc {
			hitSI, runVPN, runCost = int(c.l0SI), c.l0Page4K, c.l0Cost
		} else {
			runVPN = noVPN
		}
	}
	c.Cycles = cyc
	if hits > 0 {
		ex.flushL0Hits(c, hitSI, hits)
	}
	if runVPN != noVPN {
		c.l0Has, c.l0SI, c.l0Proc, c.l0Page4K, c.l0Cost = true, int8(hitSI), proc, runVPN, runCost
	}
}

// stepFullFast is the monomorphized full-translation routine for segFast
// machines: no NUMA penalty, no PTW MLP bookkeeping, and every cost-model
// constant read from the executor's flattened copy instead of the config.
// It must mirror stepFull exactly under those eliminations.
func (ex *executor) stepFullFast(c *Core, p *Process, addr mem.VirtAddr) {
	ex.now++
	c.Accesses++

	v := p.vmaOf(addr)
	if v == nil {
		panicOutsideVMA(p, addr)
	}
	idx := uint64(addr-v.r.Start) >> 12
	var size mem.PageSize
	var si int
	if st := v.state[idx]; st != stateUnmapped {
		v.touched[idx] = true
		switch st {
		case state2M:
			size, si = mem.Page2M, 1
		case state1G:
			size, si = mem.Page1G, 2
		default:
			size = mem.Page4K
		}
	} else {
		size, si = ex.faultPath(c, p, v, idx, addr)
	}

	cost := ex.effCPA
	baseCost := cost

	r, way := c.TLB.Translate(tlb.PageNumber(addr, si), si)
	switch r {
	case tlb.HitL1:
	case tlb.HitL2:
		cost += ex.cL2Hit
		if size == mem.Page2M {
			v.noteUse2M(addr, ex.now)
		}
	default: // tlb.Miss → page table walk (Translate already filled)
		info := c.Walker.Walk(p.Table, addr)
		cost += ex.cWalkBase + float64(info.Levels)*ex.cWalkRef
		if size == mem.Page2M {
			v.noteUse2M(addr, ex.now)
		}
		ex.recordWalk(c, info, size, addr)
	}
	c.Cycles += cost

	armL0(c, p, addr, si, way, baseCost)
}

// faultPath is the cold unmapped-page branch shared by the full-translation
// routines: it marks the page touched before the fault (policy fault hooks
// may inspect touched state, so the bit must land first exactly as it
// always has), faults, and re-reads the mapping the fault established.
func (ex *executor) faultPath(c *Core, p *Process, v *vma, idx uint64, addr mem.VirtAddr) (mem.PageSize, int) {
	v.touched[idx] = true
	ex.fault(c, p, addr)
	s, mapped := p.StateOf(addr)
	if !mapped {
		panicFaultUnmapped(p, addr)
	}
	switch s {
	case mem.Page2M:
		return s, 1
	case mem.Page1G:
		return s, 2
	}
	return s, 0
}

// recordWalk applies the PCC insertion path (Fig. 3) for one completed
// walk: gated by the pre-walk accessed bit at the PMD (2MB) / PUD (1GB)
// level — the cold-miss filter — with the surviving record addresses
// buffered per core and flushed in walk order at segment boundaries.
func (ex *executor) recordWalk(c *Core, info ptw.WalkInfo, size mem.PageSize, addr mem.VirtAddr) {
	if c.PCC2M != nil {
		if size == mem.Page1G {
			// 1GB-mapped walks never feed the 2MB PCC.
		} else if info.PMDWasAccessed || ex.coldOff {
			if len(c.pend2M) == cap(c.pend2M) {
				c.flushPCC()
			}
			c.pend2M = append(c.pend2M, addr)
		} else {
			c.Walker.NoteColdFiltered()
		}
	}
	if c.PCC1G != nil && (info.PUDWasAccessed || ex.coldOff) {
		if len(c.pend1G) == cap(c.pend1G) {
			c.flushPCC()
		}
		c.pend1G = append(c.pend1G, addr)
	}
}

// armL0 records the completed translation in the register line and, for the
// widened classes, the persistent translation table: whichever path ran,
// the translation this access used is now the MRU entry of its L1, held in
// way, so a repeat is an L1 hit at the base (no-TLB-miss) cost.
func armL0(c *Core, p *Process, addr mem.VirtAddr, si, way int, baseCost float64) {
	vpn4k := mem.PageNum(addr >> 12)
	proc := int32(p.ID)
	c.l0Has, c.l0SI, c.l0Proc, c.l0Page4K, c.l0Cost = true, int8(si), proc, vpn4k, baseCost
	switch si {
	case 0:
		*c.tt.slot4K(vpn4k) = transSlot{page: vpn4k, cost: baseCost, proc: proc, gen: c.tt.gen, way: int32(way)}
	case 1:
		hpn := mem.PageNum(addr >> 21)
		*c.tt.slot2M(hpn) = transSlot{page: hpn, cost: baseCost, proc: proc, gen: c.tt.gen, way: int32(way)}
	}
}

// panicOutsideVMA reports an access outside every VMA: a wild pointer the
// workload generator should never produce.
func panicOutsideVMA(p *Process, addr mem.VirtAddr) {
	panic(fmt.Sprintf("vmm: access %#x outside VMAs of %s", uint64(addr), p.Name))
}

// panicFaultUnmapped reports a fault that failed to establish a mapping.
func panicFaultUnmapped(p *Process, addr mem.VirtAddr) {
	panic(fmt.Sprintf("vmm: fault left %#x unmapped in %s", uint64(addr), p.Name))
}
