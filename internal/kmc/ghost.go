package kmc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// Message tags of the KMC protocols.
const (
	tagKReq = iota + 200
	tagKGet
	tagKPut
	tagKDirty
)

// vacancySeedSalt derives the vacancy-placement RNG stream.
const vacancySeedSalt = 0xFACC

// packer/unpacker: minimal little-endian serialization for the KMC wire
// formats (cell coordinates, occupancy bytes).
type packer struct{ buf []byte }

func (p *packer) u8(v uint8) { p.buf = append(p.buf, v) }
func (p *packer) i32(v int32) {
	p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(v))
}

type unpacker struct {
	buf []byte
	off int
}

// need guards every read: a truncated ghost message must fail as a
// descriptive kmc error (which the mpi runtime converts into a RankPanic
// the caller can report), not a raw slice-bounds panic.
func (u *unpacker) need(n int, what string) {
	if u.off+n > len(u.buf) {
		//mdvet:panics the mpi runtime converts rank panics into RankPanic errors, so this fails the job, not the process
		panic(fmt.Errorf("kmc: truncated ghost message: need %d byte(s) for %s at offset %d of %d",
			n, what, u.off, len(u.buf)))
	}
}

func (u *unpacker) u8() uint8 {
	u.need(1, "occupancy/basis byte")
	v := u.buf[u.off]
	u.off++
	return v
}
func (u *unpacker) i32() int32 {
	u.need(4, "coordinate word")
	v := binary.LittleEndian.Uint32(u.buf[u.off:])
	u.off += 4
	return int32(v)
}
func (u *unpacker) done() bool { return u.off >= len(u.buf) }

// haloPlan is the traditional get plan that covers the whole ghost region,
// after the eight per-sector plans.
const haloPlan = 8

// exchangeGetSector refreshes the read halo of sector sec (or, for
// haloPlan, the whole ghost region) from the owning ranks — the first half
// of the traditional protocol (paper Figure 8(b)).
// The complete halo band travels regardless of what actually changed; that
// redundancy is precisely what Figure 12 measures.
func (st *State) exchangeGetSector(sec int) {
	for _, peer := range st.peers {
		cells := st.getSend[sec][peer]
		if len(cells) == 0 {
			continue
		}
		var p packer
		for _, base := range cells {
			p.u8(st.Occ[base])
			p.u8(st.Occ[base+1])
		}
		st.Comm.Send(peer, tagKGet, p.buf)
		st.tel.bandBytes.Add(int64(len(p.buf)))
	}
	for _, peer := range st.peers {
		cells := st.getRecv[sec][peer]
		if len(cells) == 0 {
			continue
		}
		data, _ := st.Comm.Recv(peer, tagKGet)
		u := unpacker{buf: data}
		for _, base := range cells {
			st.setOcc(base, u.u8(), false)
			st.setOcc(base+1, u.u8(), false)
		}
		if !u.done() {
			//mdvet:panics ghost-protocol invariant in the hot exchange path; recovered as a RankPanic job error
			panic(fmt.Errorf("kmc: %d trailing byte(s) in sector ghost get from rank %d",
				len(u.buf)-u.off, peer))
		}
	}
}

// exchangePutSector pushes the one-cell write band of sector sec back to the
// owners — the second half of the traditional protocol (Figure 8(c)). Only
// the active sector's band travels, so no two ranks write the same cell in
// the same phase (the synchronous-sublattice separation property).
func (st *State) exchangePutSector(sec int) {
	for _, peer := range st.peers {
		cells := st.putSend[sec][peer]
		if len(cells) == 0 {
			continue
		}
		var p packer
		for _, base := range cells {
			p.u8(st.Occ[base])
			p.u8(st.Occ[base+1])
		}
		st.Comm.Send(peer, tagKPut, p.buf)
		st.tel.bandBytes.Add(int64(len(p.buf)))
	}
	for _, peer := range st.peers {
		cells := st.putRecv[sec][peer]
		if len(cells) == 0 {
			continue
		}
		data, _ := st.Comm.Recv(peer, tagKPut)
		u := unpacker{buf: data}
		for _, base := range cells {
			st.setOcc(base, u.u8(), false)
			st.setOcc(base+1, u.u8(), false)
		}
		if !u.done() {
			//mdvet:panics ghost-protocol invariant in the hot exchange path; recovered as a RankPanic job error
			panic(fmt.Errorf("kmc: %d trailing byte(s) in sector ghost put from rank %d",
				len(u.buf)-u.off, peer))
		}
	}
}

// interestedRanks returns the peer ranks whose owned-or-ghost region
// contains the wrapped cell w: the owners of all cells within the ghost
// distance of w, found by probing the 27 cube corners (rank regions are
// axis-aligned boxes at least one ghost width wide, so corners suffice).
func (st *State) interestedRanks(w lattice.Coord) []int {
	me := st.Comm.Rank()
	g := int32(st.Box.Ghost)
	var out []int
	seen := map[int]bool{me: true}
	for dz := int32(-1); dz <= 1; dz++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				r := st.Grid.RankOfCell(w.X+dx*g, w.Y+dy*g, w.Z+dz*g)
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// dirtyRecord is one affected site on the wire: wrapped cell, basis,
// occupancy.
func packDirty(p *packer, w lattice.Coord, occ uint8) {
	p.i32(w.X)
	p.i32(w.Y)
	p.i32(w.Z)
	p.u8(uint8(w.B))
	p.u8(occ)
}

// applyDirty replays a peer's dirty-site message against the local halo.
// Malformed input — a truncated record or a cell outside the local region —
// fails with a descriptive kmc error rather than a raw runtime panic.
func (st *State) applyDirty(data []byte, from int) {
	u := unpacker{buf: data}
	for !u.done() {
		w := lattice.Coord{X: u.i32(), Y: u.i32(), Z: u.i32(), B: int8(u.u8())}
		occ := u.u8()
		key := st.cellKey(w.X, w.Y, w.Z)
		base, ok := st.wrapped[key]
		if !ok {
			//mdvet:panics ghost-protocol invariant in the hot exchange path; recovered as a RankPanic job error
			panic(fmt.Errorf("kmc: rank %d sent update for invisible cell %+v", from, w))
		}
		st.setOcc(base+int(w.B), occ, false)
	}
}

// flushOnDemand implements the paper's on-demand communication strategy:
// only the sites affected during the sector travel, to exactly the ranks
// that can see them (Figure 8(d)).
func (st *State) flushOnDemand() {
	// Deterministic order over the dirty set.
	dirtySorted := make([]int, 0, len(st.dirty))
	for s := range st.dirty {
		dirtySorted = append(dirtySorted, s)
	}
	sort.Ints(dirtySorted)
	st.dirty = make(map[int]bool)
	st.tel.dirtySites.Add(int64(len(dirtySorted)))

	byPeer := make(map[int]*packer)
	for _, local := range dirtySorted {
		c := st.Box.GlobalCoord(local)
		w := st.L.Wrap(c)
		for _, r := range st.interestedRanks(w) {
			p := byPeer[r]
			if p == nil {
				p = &packer{}
				byPeer[r] = p
			}
			packDirty(p, w, st.Occ[local])
		}
	}

	switch st.Cfg.Protocol {
	case OnDemand:
		// Two-sided: a (possibly zero-size) message to every peer, because
		// the receiver cannot otherwise know nothing is coming — the
		// drawback the paper calls out.
		for _, peer := range st.peers {
			var payload []byte
			if p := byPeer[peer]; p != nil {
				payload = p.buf
			}
			st.Comm.Send(peer, tagKDirty, payload)
			st.tel.dirtyBytes.Add(int64(len(payload)))
		}
		for _, peer := range st.peers {
			status := st.Comm.Probe(peer, tagKDirty)
			data, _ := st.Comm.Recv(status.Source, status.Tag)
			st.applyDirty(data, peer)
		}
	case OnDemandOneSided:
		// One-sided: only ranks with updates put; the fence synchronizes.
		for _, peer := range st.peers {
			if p := byPeer[peer]; p != nil && len(p.buf) > 0 {
				st.win.Put(peer, p.buf)
				st.tel.dirtyBytes.Add(int64(len(p.buf)))
			}
		}
		for _, m := range st.win.Fence() {
			st.applyDirty(m.Data, m.Source)
		}
	default:
		//mdvet:panics unreachable by construction: Config pins the protocol before the state exists
		panic("kmc: flushOnDemand with traditional protocol")
	}
}

// Stats returns the accumulated communication counters.
func (st *State) Stats() mpi.Stats { return st.Comm.Stats() }
