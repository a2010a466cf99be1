package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"pccsim/internal/mem"
)

// deltaMask[w] keeps the low w bytes of an 8-byte little-endian load.
var deltaMask = [9]uint64{
	0, 0xff, 0xffff, 0xff_ffff, 0xffff_ffff,
	0xff_ffff_ffff, 0xffff_ffff_ffff, 0xff_ffff_ffff_ffff, ^uint64(0),
}

// This file implements the columnar block trace format, the second
// generation of the in-memory record/replay cache (record.go is the first;
// it remains as the per-record baseline the decode benchmarks compare
// against). Instead of interleaving flags/address/thread varints per access,
// a BlockRecording splits the stream into fixed-capacity blocks and stores
// each field as its own column:
//
//	uvarint count          accesses in the block (1..BlockAccesses)
//	flags byte             bit0 = write bitmap present, bit1 = multi-thread,
//	                       bit2 = uniform delta width
//	uvarint baseAddr       absolute address of the block's first access
//	width byte             uniform only: the shared byte width (1..8) of
//	                       every delta; the control column is then absent
//	ctrl column            ceil((count-1)/2) bytes; nibble i (low nibble of
//	                       byte i/2 for even i, high for odd) encodes the
//	                       byte width minus one (1..8) of delta i
//	delta column           count-1 zigzag deltas, each stored little-endian
//	                       truncated to its control (or uniform) width
//	[write bitmap]         ceil(count/8) bytes, bit i = access i is a write
//	thread column          multi-thread: (uvarint runLen, uvarint
//	                       zigzag(thread)) pairs summing to count;
//	                       single-thread: one uvarint zigzag(thread)
//
// Splitting the width codes out of the byte stream (the stream-vbyte trick)
// is what makes decode fast: a varint reader burns a data-dependent branch
// per payload byte, while this decoder reads the width from the control
// nibble and materializes the delta with one unaligned 8-byte load and a
// mask — no branch whose direction depends on the delta's size. Blocks whose
// deltas all share one width (sequential and strided streams — common, and
// exactly the streams that replay hottest) skip the control column entirely
// and decode with a constant-stride loop. The decoder fills a whole block of
// []Access at a time: writes apply as a bitmap pass only when the block has
// any, and threads fill by run. Blocks are independently decodable (each
// carries its absolute base address), so a prefetcher can decode block N+1
// while the simulator consumes block N.
//
// Space is comparable to the row encoding (the flags byte per access is
// replaced by ~1 bit of bitmap plus per-block headers); the win is decode
// throughput and the in-place handoff: BlockSource lets the consumer run
// directly over the decoded block instead of copying through its own batch
// buffer.

// BlockAccesses is the fixed block capacity. Every block of a recording
// holds exactly this many accesses except the final one, which may be
// shorter. It deliberately matches the vmm scheduler's job quantum so a
// round-robin turn consumes exactly one block in the steady state.
const BlockAccesses = 4096

// columnarMagic identifies the serialized columnar container (Bytes /
// ParseBlockRecording).
const columnarMagic = "PCCCOL1\n"

// Typed decode errors, following the internal/snapshot convention: decoding
// untrusted bytes is total — it returns one of these, it never panics.
var (
	// ErrColumnarMagic reports input that is not a columnar container.
	ErrColumnarMagic = errors.New("trace: columnar: bad magic")
	// ErrColumnarTruncated reports input that ends mid-structure.
	ErrColumnarTruncated = errors.New("trace: columnar: truncated")
	// ErrColumnarCorrupt reports structurally invalid input (bad counts,
	// overlong varints, thread runs that do not sum to the block count).
	ErrColumnarCorrupt = errors.New("trace: columnar: corrupt")
)

// BlockSource is a BatchStream whose decoded blocks can be consumed in
// place, skipping the consumer-side copy. vmm.Machine.Run feeds its
// simulation loop directly from these slices when a job's stream implements
// it.
type BlockSource interface {
	BatchStream
	// NextBlock returns up to max accesses decoded in place. The returned
	// slice is owned by the stream and valid only until the next
	// NextBlock/DecodeBlock/Next/NextBatch call; nil/empty means exhausted.
	NextBlock(max int) []Access
	// DecodeBlock decodes the next whole block into buf and returns the
	// access count (0 when exhausted). buf should have room for
	// BlockAccesses; shorter buffers are served by copy. Unlike NextBlock
	// the result does not alias stream-internal storage, so a prefetcher
	// may hand the filled buf to another goroutine and keep decoding.
	DecodeBlock(buf []Access) int
}

// zigzag maps signed deltas onto small unsigned integers.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// blockRef locates one encoded block inside a BlockRecording.
type blockRef struct {
	off   int
	count uint32
}

// BlockRecording is an immutable, compactly encoded, replayable copy of a
// finite access stream in the columnar block format. It is safe for
// concurrent Replay calls.
type BlockRecording struct {
	data   []byte
	blocks []blockRef
	count  uint64
}

// RecordBlocks drains s into a BlockRecording. It returns nil as soon as the
// encoding exceeds maxBytes (maxBytes <= 0 means unlimited) — the stream is
// then partially consumed and the caller falls back to live generation.
// RecordBlocks does not close s; the caller owns the stream's lifecycle.
func RecordBlocks(s Stream, maxBytes int64) *BlockRecording {
	bs := Batched(s)
	r := &BlockRecording{}
	stage := make([]Access, BlockAccesses)
	for {
		// Fill a whole block before encoding, so every block except the
		// final one holds exactly BlockAccesses even over chunky producers.
		n := 0
		for n < BlockAccesses {
			k := bs.NextBatch(stage[n:])
			if k == 0 {
				break
			}
			n += k
		}
		if n == 0 {
			// Trim the append slack: recordings are long-lived.
			r.data = append([]byte(nil), r.data...)
			return r
		}
		r.appendBlock(stage[:n])
		r.count += uint64(n)
		if maxBytes > 0 && int64(len(r.data)) > maxBytes {
			return nil
		}
	}
}

// appendBlock encodes one staged block onto r.data.
func (r *BlockRecording) appendBlock(acc []Access) {
	off := len(r.data)
	hasWrites := false
	multiThread := false
	for i := range acc {
		if acc[i].Write {
			hasWrites = true
		}
		if acc[i].Thread != acc[0].Thread {
			multiThread = true
		}
	}
	// Detect uniform-width blocks (sequential/strided streams): those drop
	// the control column and decode with a constant-stride loop. Encode is
	// the cold path (once per cached stream), so the extra width scan is
	// cheap.
	nd := len(acc) - 1
	uniform := nd > 0
	w0 := 0
	prev := uint64(acc[0].Addr)
	for i := 0; i < nd; i++ {
		a := uint64(acc[i+1].Addr)
		w := (bits.Len64(zigzag(int64(a-prev))|1) + 7) / 8 // byte width 1..8
		prev = a
		if w0 == 0 {
			w0 = w
		} else if w != w0 {
			uniform = false
			break
		}
	}
	flags := byte(0)
	if hasWrites {
		flags |= 1
	}
	if multiThread {
		flags |= 2
	}
	if uniform {
		flags |= 4
	}
	r.data = binary.AppendUvarint(r.data, uint64(len(acc)))
	r.data = append(r.data, flags)
	r.data = binary.AppendUvarint(r.data, uint64(acc[0].Addr))
	prev = uint64(acc[0].Addr)
	if uniform {
		r.data = append(r.data, byte(w0))
		for i := 0; i < nd; i++ {
			a := uint64(acc[i+1].Addr)
			u := zigzag(int64(a - prev))
			prev = a
			for b := 0; b < w0; b++ {
				r.data = append(r.data, byte(u>>(8*b)))
			}
		}
	} else {
		// Control nibbles are fixed-length, so reserve them up front and
		// fill while appending the variable-length delta payload behind
		// them.
		ctrlOff := len(r.data)
		r.data = append(r.data, make([]byte, (nd+1)/2)...)
		for i := 0; i < nd; i++ {
			a := uint64(acc[i+1].Addr)
			u := zigzag(int64(a - prev))
			prev = a
			w := (bits.Len64(u|1) + 7) / 8
			if i&1 == 0 {
				r.data[ctrlOff+i/2] = byte(w - 1)
			} else {
				r.data[ctrlOff+i/2] |= byte(w-1) << 4
			}
			for b := 0; b < w; b++ {
				r.data = append(r.data, byte(u>>(8*b)))
			}
		}
	}
	if hasWrites {
		bm := make([]byte, (len(acc)+7)/8)
		for i := range acc {
			if acc[i].Write {
				bm[i>>3] |= 1 << (i & 7)
			}
		}
		r.data = append(r.data, bm...)
	}
	if multiThread {
		i := 0
		for i < len(acc) {
			t := acc[i].Thread
			j := i + 1
			for j < len(acc) && acc[j].Thread == t {
				j++
			}
			r.data = binary.AppendUvarint(r.data, uint64(j-i))
			r.data = binary.AppendUvarint(r.data, zigzag(int64(t)))
			i = j
		}
	} else {
		r.data = binary.AppendUvarint(r.data, zigzag(int64(acc[0].Thread)))
	}
	r.blocks = append(r.blocks, blockRef{off: off, count: uint32(len(acc))})
}

// Accesses returns the number of recorded accesses.
func (r *BlockRecording) Accesses() uint64 { return r.count }

// Size returns the encoded size in bytes (excluding the per-block index,
// 16 bytes per ~4K accesses).
func (r *BlockRecording) Size() int { return len(r.data) }

// Blocks returns the number of encoded blocks.
func (r *BlockRecording) Blocks() int { return len(r.blocks) }

// Bytes serializes the recording into the standalone columnar container:
// magic, uvarint total access count, uvarint block count, then the encoded
// blocks. ParseBlockRecording inverts it.
func (r *BlockRecording) Bytes() []byte {
	out := make([]byte, 0, len(columnarMagic)+2*binary.MaxVarintLen64+len(r.data))
	out = append(out, columnarMagic...)
	out = binary.AppendUvarint(out, r.count)
	out = binary.AppendUvarint(out, uint64(len(r.blocks)))
	return append(out, r.data...)
}

// ParseBlockRecording decodes a serialized columnar container. It validates
// every block structurally (by decoding it into a scratch buffer), so a
// successful parse guarantees replay can never fail; malformed input yields
// a typed error — ErrColumnarMagic, ErrColumnarTruncated or
// ErrColumnarCorrupt — never a panic.
func ParseBlockRecording(data []byte) (*BlockRecording, error) {
	if len(data) < len(columnarMagic) || string(data[:len(columnarMagic)]) != columnarMagic {
		return nil, ErrColumnarMagic
	}
	rest := data[len(columnarMagic):]
	total, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, ErrColumnarTruncated
	}
	rest = rest[n:]
	nblocks, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, ErrColumnarTruncated
	}
	rest = rest[n:]
	// A block encodes at least 4 bytes (count, flags, base, thread); bound
	// nblocks by the remaining input before allocating the index.
	if nblocks > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: %d blocks in %d bytes", ErrColumnarCorrupt, nblocks, len(rest))
	}
	r := &BlockRecording{data: rest, blocks: make([]blockRef, 0, nblocks)}
	scratch := make([]Access, BlockAccesses)
	off := 0
	var sum uint64
	for b := uint64(0); b < nblocks; b++ {
		count, end, err := validateBlock(rest, off, scratch)
		if err != nil {
			return nil, fmt.Errorf("block %d at %d: %w", b, off, err)
		}
		r.blocks = append(r.blocks, blockRef{off: off, count: uint32(count)})
		sum += uint64(count)
		off = end
	}
	if off != len(rest) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrColumnarCorrupt, len(rest)-off)
	}
	if sum != total {
		return nil, fmt.Errorf("%w: header count %d, blocks hold %d", ErrColumnarCorrupt, total, sum)
	}
	r.count = sum
	return r, nil
}

// validateBlock decodes the block starting at off for its side effects only,
// returning its access count and end offset.
func validateBlock(data []byte, off int, scratch []Access) (count, end int, err error) {
	c, end, err := peekBlockCount(data, off)
	if err != nil {
		return 0, 0, err
	}
	n, end, err := decodeBlock(data, off, scratch[:c])
	if err != nil {
		return 0, 0, err
	}
	return n, end, nil
}

// peekBlockCount reads the count header of the block at off.
func peekBlockCount(data []byte, off int) (count, afterCount int, err error) {
	u, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, ErrColumnarTruncated
	}
	if u == 0 || u > BlockAccesses {
		return 0, 0, fmt.Errorf("%w: block count %d", ErrColumnarCorrupt, u)
	}
	return int(u), off + n, nil
}

// uvarintAt is the checked varint reader the block decoder uses; unlike
// binary.Uvarint it reports truncation and overlength explicitly so decode
// stays total over arbitrary bytes.
func uvarintAt(data []byte, off int) (u uint64, next int, err error) {
	var shift uint
	for {
		if off >= len(data) {
			return 0, 0, ErrColumnarTruncated
		}
		b := data[off]
		off++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				return 0, 0, fmt.Errorf("%w: varint overflow", ErrColumnarCorrupt)
			}
			return u | uint64(b)<<shift, off, nil
		}
		u |= uint64(b&0x7f) << shift
		shift += 7
		if shift > 63 {
			return 0, 0, fmt.Errorf("%w: varint overflow", ErrColumnarCorrupt)
		}
	}
}

// decodeBlock decodes the block starting at off into buf, which must hold
// exactly the block's count (callers size it via peekBlockCount or the block
// index). It returns the count and the block's end offset. Decode is total:
// malformed input yields a typed error, never a panic or out-of-bounds
// access.
func decodeBlock(data []byte, off int, buf []Access) (n, end int, err error) {
	count, off, err := peekBlockCount(data, off)
	if err != nil {
		return 0, 0, err
	}
	if count != len(buf) {
		return 0, 0, fmt.Errorf("%w: block count %d, buffer %d", ErrColumnarCorrupt, count, len(buf))
	}
	if off >= len(data) {
		return 0, 0, ErrColumnarTruncated
	}
	flags := data[off]
	off++
	if flags&^byte(7) != 0 {
		return 0, 0, fmt.Errorf("%w: flags %#x", ErrColumnarCorrupt, flags)
	}

	// Address column: absolute base, control nibbles, then packed deltas.
	// The loop body writes the full Access struct so stale Thread/Write
	// values from a previous decode can never leak through.
	prev, off, err := uvarintAt(data, off)
	if err != nil {
		return 0, 0, err
	}
	buf[0] = Access{Addr: mem.VirtAddr(prev)}
	nd := count - 1
	if flags&4 != 0 {
		off, err = decodeUniformDeltas(data, off, buf, prev)
		if err != nil {
			return 0, 0, err
		}
		return decodeBlockTail(data, off, buf, flags, count)
	}
	ctrlLen := (nd + 1) / 2
	if off+ctrlLen > len(data) {
		return 0, 0, ErrColumnarTruncated
	}
	ctrl := data[off : off+ctrlLen]
	off += ctrlLen
	// The width comes from the control nibble, so the payload read is one
	// unaligned 8-byte load and a mask — no branch depends on the delta's
	// size. The main loop decodes a control byte (two deltas) per
	// iteration; widths are clamped to 1..8 and validated branchlessly by
	// accumulating the nibbles' high bits into bad. Only the last few
	// deltas (within 16 bytes of the input's end) take the checked
	// byte-at-a-time tail path.
	var bad byte
	i := 0
	for ; i+2 <= nd && off <= len(data)-16; i += 2 {
		cb := ctrl[i>>1]
		bad |= cb & 0x88
		w := int(cb&7) + 1
		prev += uint64(unzigzag(binary.LittleEndian.Uint64(data[off:]) & deltaMask[w]))
		buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
		off += w
		w = int(cb>>4&7) + 1
		prev += uint64(unzigzag(binary.LittleEndian.Uint64(data[off:]) & deltaMask[w]))
		buf[i+2] = Access{Addr: mem.VirtAddr(prev)}
		off += w
	}
	for ; i < nd; i++ {
		nib := ctrl[i>>1] >> ((i & 1) * 4) & 0xf
		bad |= nib & 8
		w := int(nib&7) + 1
		if off+w > len(data) {
			return 0, 0, ErrColumnarTruncated
		}
		var u uint64
		for b := 0; b < w; b++ {
			u |= uint64(data[off+b]) << (8 * b)
		}
		off += w
		prev += uint64(unzigzag(u))
		buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
	}
	if bad != 0 {
		return 0, 0, fmt.Errorf("%w: delta width nibble > 7", ErrColumnarCorrupt)
	}
	return decodeBlockTail(data, off, buf, flags, count)
}

// decodeUniformDeltas decodes a uniform-width delta column (flag bit 2): a
// width byte then count-1 fixed-width little-endian zigzag deltas. The
// constant stride lets the common width-1 case run as a plain byte loop.
func decodeUniformDeltas(data []byte, off int, buf []Access, prev uint64) (int, error) {
	nd := len(buf) - 1
	if off >= len(data) {
		return 0, ErrColumnarTruncated
	}
	w := int(data[off])
	off++
	if w < 1 || w > 8 {
		return 0, fmt.Errorf("%w: uniform delta width %d", ErrColumnarCorrupt, w)
	}
	if off+nd*w > len(data) {
		return 0, ErrColumnarTruncated
	}
	col := data[off : off+nd*w]
	off += nd * w
	if w == 1 {
		for i, b := range col {
			prev += uint64(unzigzag(uint64(b)))
			buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
		}
		return off, nil
	}
	mask := deltaMask[w]
	i := 0
	for ; i < nd && (i+1)*w+8 <= len(col)+w; i++ {
		// One unaligned 8-byte load per delta while at least 8 bytes of
		// input remain past the delta's start.
		if i*w+8 > len(col) {
			break
		}
		prev += uint64(unzigzag(binary.LittleEndian.Uint64(col[i*w:]) & mask))
		buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
	}
	for ; i < nd; i++ {
		var u uint64
		for b := 0; b < w; b++ {
			u |= uint64(col[i*w+b]) << (8 * b)
		}
		prev += uint64(unzigzag(u))
		buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
	}
	return off, nil
}

// decodeBlockTail applies the write bitmap and thread column that follow a
// block's address column.
func decodeBlockTail(data []byte, off int, buf []Access, flags byte, count int) (n, end int, err error) {
	// Write bitmap, only present when the block has any write.
	if flags&1 != 0 {
		bmLen := (count + 7) / 8
		if off+bmLen > len(data) {
			return 0, 0, ErrColumnarTruncated
		}
		bm := data[off : off+bmLen]
		off += bmLen
		// buf was freshly written with zero Write fields by the address
		// pass, so only set bits need touching; writes are sparse in real
		// streams, making this much cheaper than a bit test per access.
		// Padding bits past count are ignored, as the per-bit reader did.
		for bi := 0; bi < count/8; bi++ {
			base := bi * 8
			for b := bm[bi]; b != 0; b &= b - 1 {
				buf[base+bits.TrailingZeros8(b)].Write = true
			}
		}
		if count&7 != 0 {
			base := count &^ 7
			for b := bm[count/8] & byte(1<<(count&7)-1); b != 0; b &= b - 1 {
				buf[base+bits.TrailingZeros8(b)].Write = true
			}
		}
	}

	// Thread column: one value for the whole block, or run-length pairs.
	if flags&2 == 0 {
		u, o, err := uvarintAt(data, off)
		if err != nil {
			return 0, 0, err
		}
		off = o
		if t := int(unzigzag(u)); t != 0 {
			for i := 0; i < count; i++ {
				buf[i].Thread = t
			}
		}
		return count, off, nil
	}
	filled := 0
	for filled < count {
		rl, o, err := uvarintAt(data, off)
		if err != nil {
			return 0, 0, err
		}
		tv, o, err := uvarintAt(data, o)
		if err != nil {
			return 0, 0, err
		}
		off = o
		if rl == 0 || rl > uint64(count-filled) {
			return 0, 0, fmt.Errorf("%w: thread run %d with %d slots left", ErrColumnarCorrupt, rl, count-filled)
		}
		// Thread 0 is already in place from the address pass's zeroing.
		if t := int(unzigzag(tv)); t != 0 {
			for i := filled; i < filled+int(rl); i++ {
				buf[i].Thread = t
			}
		}
		filled += int(rl)
	}
	return count, off, nil
}

// Replay returns a fresh stream over the recording. Replays are independent
// and byte-identical to the recorded stream; any number may run concurrently
// over the same BlockRecording.
func (r *BlockRecording) Replay() *BlockReplayStream { return &BlockReplayStream{r: r} }

// BlockReplayStream decodes a BlockRecording one whole block at a time. It
// implements Stream, BatchStream and BlockSource; a decode error (possible
// only on recordings assembled from unvalidated bytes) ends the stream and
// is reported by Err.
type BlockReplayStream struct {
	r    *BlockRecording
	next int      // next block index to decode
	buf  []Access // lazily allocated internal decode buffer
	dec  []Access // current decoded window into buf
	pos  int      // consumption cursor within dec
	err  error
}

// fill decodes the next block into the internal buffer; false at stream end.
func (rs *BlockReplayStream) fill() bool {
	if rs.err != nil || rs.next >= len(rs.r.blocks) {
		return false
	}
	if rs.buf == nil {
		rs.buf = make([]Access, BlockAccesses)
	}
	ref := rs.r.blocks[rs.next]
	n, _, err := decodeBlock(rs.r.data, ref.off, rs.buf[:ref.count])
	if err != nil {
		rs.err = err
		return false
	}
	rs.next++
	rs.dec = rs.buf[:n]
	rs.pos = 0
	return true
}

// Next implements Stream.
func (rs *BlockReplayStream) Next() (Access, bool) {
	if rs.pos >= len(rs.dec) && !rs.fill() {
		return Access{}, false
	}
	a := rs.dec[rs.pos]
	rs.pos++
	return a, true
}

// NextBatch implements BatchStream. Block-aligned requests with room for the
// whole block decode straight into buf; anything else is served from the
// internal block buffer.
func (rs *BlockReplayStream) NextBatch(buf []Access) int {
	k := 0
	for k < len(buf) {
		if rs.pos >= len(rs.dec) {
			if rs.err != nil || rs.next >= len(rs.r.blocks) {
				break
			}
			if ref := rs.r.blocks[rs.next]; int(ref.count) <= len(buf)-k {
				n, _, err := decodeBlock(rs.r.data, ref.off, buf[k:k+int(ref.count)])
				if err != nil {
					rs.err = err
					break
				}
				rs.next++
				k += n
				continue
			}
			if !rs.fill() {
				break
			}
		}
		n := copy(buf[k:], rs.dec[rs.pos:])
		rs.pos += n
		k += n
	}
	return k
}

// NextBlock implements BlockSource.
func (rs *BlockReplayStream) NextBlock(max int) []Access {
	if max <= 0 {
		return nil
	}
	if rs.pos >= len(rs.dec) && !rs.fill() {
		return nil
	}
	w := rs.dec[rs.pos:]
	if len(w) > max {
		w = w[:max]
	}
	rs.pos += len(w)
	return w
}

// DecodeBlock implements BlockSource.
func (rs *BlockReplayStream) DecodeBlock(buf []Access) int {
	if rs.pos < len(rs.dec) {
		// Unaligned leftover (the stream was partially consumed through
		// Next/NextBatch first): drain it by copy so the cursor realigns.
		n := copy(buf, rs.dec[rs.pos:])
		rs.pos += n
		return n
	}
	if rs.err != nil || rs.next >= len(rs.r.blocks) {
		return 0
	}
	ref := rs.r.blocks[rs.next]
	if int(ref.count) > len(buf) {
		if !rs.fill() {
			return 0
		}
		n := copy(buf, rs.dec)
		rs.pos = n
		return n
	}
	n, _, err := decodeBlock(rs.r.data, ref.off, buf[:ref.count])
	if err != nil {
		rs.err = err
		return 0
	}
	rs.next++
	return n
}

// Err reports the decode error that ended the stream, nil after a clean end.
// Recordings built by RecordBlocks or accepted by ParseBlockRecording never
// produce one.
func (rs *BlockReplayStream) Err() error { return rs.err }

// BlockStats summarizes a recording's encoded shape (cmd/pcctrace and
// cmd/tracechar surface it).
type BlockStats struct {
	Blocks         int
	Accesses       uint64
	Bytes          int
	BytesPerAccess float64
	// SingleThreadBlocks counts blocks whose accesses all share one thread
	// (encoded without a run-length column).
	SingleThreadBlocks int
	// WriteBlocks counts blocks carrying a write bitmap.
	WriteBlocks int
	// DeltaBytes histograms the encoded width of the address deltas:
	// DeltaBytes[i] deltas took i+1 payload bytes.
	DeltaBytes [8]uint64
}

// Stats scans the recording and reports its encoded shape.
func (r *BlockRecording) Stats() BlockStats {
	st := BlockStats{Blocks: len(r.blocks), Accesses: r.count, Bytes: len(r.data)}
	if r.count > 0 {
		st.BytesPerAccess = float64(len(r.data)) / float64(r.count)
	}
	for _, ref := range r.blocks {
		off := ref.off
		_, off, err := peekBlockCount(r.data, off)
		if err != nil || off >= len(r.data) {
			break // unreachable on recordings we built or validated
		}
		flags := r.data[off]
		off++
		if flags&1 != 0 {
			st.WriteBlocks++
		}
		if flags&2 == 0 {
			st.SingleThreadBlocks++
		}
		_, off, err = uvarintAt(r.data, off) // base address
		if err != nil {
			break
		}
		nd := int(ref.count) - 1
		if flags&4 != 0 {
			// Uniform blocks carry one width byte and no control column.
			if nd > 0 && off < len(r.data) {
				if w := int(r.data[off]); w >= 1 && w <= 8 {
					st.DeltaBytes[w-1] += uint64(nd)
				}
			}
			continue
		}
		// Delta widths are read straight off the control column.
		if off+(nd+1)/2 > len(r.data) {
			break
		}
		ctrl := r.data[off : off+(nd+1)/2]
		for i := 0; i < nd; i++ {
			if w := int(ctrl[i>>1]>>((i&1)*4)) & 0xf; w < len(st.DeltaBytes) {
				st.DeltaBytes[w]++
			}
		}
	}
	return st
}

// String renders the stats as the one-per-line table the CLI tools print.
func (st BlockStats) String() string {
	s := fmt.Sprintf("blocks=%d accesses=%d bytes=%d bytes/access=%.3f single-thread-blocks=%d write-blocks=%d",
		st.Blocks, st.Accesses, st.Bytes, st.BytesPerAccess, st.SingleThreadBlocks, st.WriteBlocks)
	for i, c := range st.DeltaBytes {
		if c > 0 {
			s += fmt.Sprintf(" delta%dB=%d", i+1, c)
		}
	}
	return s
}
