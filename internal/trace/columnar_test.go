package trace

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"pccsim/internal/mem"
)

// columnarMix builds an access sequence with every feature the block codec
// encodes: forward/backward deltas of all widths, thread runs, thread-uniform
// stretches, write bursts and read-only stretches, plus enough volume to
// cross several block boundaries (including a final short block).
func columnarMix(n int) []Access {
	rng := rand.New(rand.NewSource(99))
	accs := make([]Access, n)
	addr := uint64(1 << 30)
	thread := 0
	for i := range accs {
		switch rng.Intn(10) {
		case 0:
			addr = rng.Uint64() // wild jump, huge delta
		case 1:
			addr -= uint64(rng.Intn(1 << 20)) // backward
		default:
			addr += uint64(rng.Intn(256)) // small forward (the common case)
		}
		if rng.Intn(500) == 0 {
			thread = rng.Intn(8)
		}
		accs[i] = Access{
			Addr:   mem.VirtAddr(addr),
			Thread: thread,
			Write:  rng.Intn(10) == 0,
		}
	}
	return accs
}

// TestColumnarRoundTrip proves a block recording replays the exact access
// sequence through every consumption style: Next, NextBatch at odd sizes,
// and the in-place NextBlock/DecodeBlock paths.
func TestColumnarRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, BlockAccesses - 1, BlockAccesses, BlockAccesses + 1, 3*BlockAccesses + 17} {
		accs := columnarMix(n)
		rec := RecordBlocks(Slice(accs), 0)
		if rec == nil {
			t.Fatalf("n=%d: unlimited RecordBlocks returned nil", n)
		}
		if rec.Accesses() != uint64(n) {
			t.Fatalf("n=%d: Accesses() = %d", n, rec.Accesses())
		}
		wantBlocks := (n + BlockAccesses - 1) / BlockAccesses
		if rec.Blocks() != wantBlocks {
			t.Fatalf("n=%d: Blocks() = %d, want %d", n, rec.Blocks(), wantBlocks)
		}
		if got := drainNext(rec.Replay(), n+1); !reflect.DeepEqual(got, accs) && n > 0 {
			t.Fatalf("n=%d: Next replay diverged", n)
		}
		if got := drainBatch(rec.Replay(), n+1); !reflect.DeepEqual(got, accs) && n > 0 {
			t.Fatalf("n=%d: batch replay diverged", n)
		}
		// In-place block consumption at a capped size.
		rs := rec.Replay()
		var got []Access
		for {
			seg := rs.NextBlock(700)
			if len(seg) == 0 {
				break
			}
			got = append(got, seg...)
		}
		if !reflect.DeepEqual(got, accs) && n > 0 {
			t.Fatalf("n=%d: NextBlock replay diverged", n)
		}
		if rs.Err() != nil {
			t.Fatalf("n=%d: clean replay reported error %v", n, rs.Err())
		}
		// Whole-block decode into a caller buffer.
		rs = rec.Replay()
		buf := make([]Access, BlockAccesses)
		got = got[:0]
		for {
			k := rs.DecodeBlock(buf)
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
		}
		if !reflect.DeepEqual(got, accs) && n > 0 {
			t.Fatalf("n=%d: DecodeBlock replay diverged", n)
		}
	}
}

// TestColumnarMixedConsumption: interleaving Next, NextBatch, NextBlock and
// DecodeBlock over one stream must still produce the exact sequence — the
// cursors realign across styles (vmm mixes them when a restored run
// fast-forwards with NextBatch and then continues with NextBlock).
func TestColumnarMixedConsumption(t *testing.T) {
	accs := columnarMix(2*BlockAccesses + 57)
	rec := RecordBlocks(Slice(accs), 0)
	rs := rec.Replay()
	var got []Access
	buf := make([]Access, BlockAccesses)
	for i := 0; ; i++ {
		switch i % 4 {
		case 0:
			a, ok := rs.Next()
			if !ok {
				goto done
			}
			got = append(got, a)
		case 1:
			k := rs.NextBatch(buf[:33])
			if k == 0 {
				goto done
			}
			got = append(got, buf[:k]...)
		case 2:
			seg := rs.NextBlock(517)
			if len(seg) == 0 {
				goto done
			}
			got = append(got, seg...)
		case 3:
			k := rs.DecodeBlock(buf)
			if k == 0 {
				goto done
			}
			got = append(got, buf[:k]...)
		}
	}
done:
	if !reflect.DeepEqual(got, accs) {
		t.Fatalf("mixed consumption diverged (%d of %d accesses)", len(got), len(accs))
	}
}

// TestColumnarByteCap: over-budget recording returns nil (the caller falls
// back to live generation), under-budget succeeds.
func TestColumnarByteCap(t *testing.T) {
	if rec := RecordBlocks(UniformRandom(0, 1<<40, 100_000, rand.New(rand.NewSource(1))), 64); rec != nil {
		t.Fatalf("RecordBlocks over a 64-byte cap must return nil, got %d bytes", rec.Size())
	}
	rec := RecordBlocks(Sequential(0, 1<<20, 64, 1000), 1<<20)
	if rec == nil || rec.Accesses() != 1000 {
		t.Fatal("RecordBlocks under cap must succeed")
	}
}

// TestColumnarContainerRoundTrip: Bytes → ParseBlockRecording reproduces a
// recording that replays identically, and the parse output's Bytes are
// identical to the input (a serialization fixpoint).
func TestColumnarContainerRoundTrip(t *testing.T) {
	accs := columnarMix(BlockAccesses + 321)
	rec := RecordBlocks(Slice(accs), 0)
	data := rec.Bytes()
	re, err := ParseBlockRecording(data)
	if err != nil {
		t.Fatalf("ParseBlockRecording of our own output: %v", err)
	}
	if re.Accesses() != rec.Accesses() || re.Blocks() != rec.Blocks() {
		t.Fatalf("parsed shape (%d, %d) != original (%d, %d)",
			re.Accesses(), re.Blocks(), rec.Accesses(), rec.Blocks())
	}
	if got := drainBatch(re.Replay(), len(accs)+1); !reflect.DeepEqual(got, accs) {
		t.Fatal("parsed recording replays a different sequence")
	}
	if !reflect.DeepEqual(re.Bytes(), data) {
		t.Fatal("serialize → parse → serialize is not byte-identical")
	}

	// Empty recording round-trips too.
	empty := RecordBlocks(Slice(nil), 0)
	re2, err := ParseBlockRecording(empty.Bytes())
	if err != nil || re2.Accesses() != 0 {
		t.Fatalf("empty container: %v, %d accesses", err, re2.Accesses())
	}
}

// TestColumnarTypedErrors pins the decode-is-total contract on the obvious
// malformation classes; the fuzz target covers the rest.
func TestColumnarTypedErrors(t *testing.T) {
	valid := RecordBlocks(Slice(columnarMix(BlockAccesses+10)), 0).Bytes()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrColumnarMagic},
		{"bad magic", []byte("NOTACOL1 whatever"), ErrColumnarMagic},
		{"magic only", []byte(columnarMagic), ErrColumnarTruncated},
		{"truncated mid-block", valid[:len(valid)-5], ErrColumnarTruncated},
		{"trailing garbage", append(append([]byte{}, valid...), 1, 2, 3), ErrColumnarCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseBlockRecording(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("ParseBlockRecording = %v, want %v", err, tc.want)
			}
		})
	}

	// Corrupting the header count without touching blocks must be caught.
	bad := append([]byte{}, valid...)
	bad[len(columnarMagic)] ^= 1
	if _, err := ParseBlockRecording(bad); err == nil {
		t.Fatal("count/content mismatch accepted")
	}
}

// TestColumnarStats sanity-checks the shape report the CLI tools print.
func TestColumnarStats(t *testing.T) {
	accs := columnarMix(2*BlockAccesses + 100)
	rec := RecordBlocks(Slice(accs), 0)
	st := rec.Stats()
	if st.Blocks != 3 || st.Accesses != uint64(len(accs)) || st.Bytes != rec.Size() {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	if st.BytesPerAccess <= 0 || st.BytesPerAccess > 24 {
		t.Fatalf("bytes/access %f out of range", st.BytesPerAccess)
	}
	var deltas uint64
	for _, c := range st.DeltaBytes {
		deltas += c
	}
	// Every access but the first of each block contributes one delta.
	if want := uint64(len(accs) - st.Blocks); deltas != want {
		t.Fatalf("delta histogram holds %d entries, want %d", deltas, want)
	}
	if st.String() == "" {
		t.Fatal("empty stats rendering")
	}

	// A single-thread read-only stream encodes without bitmaps or runs.
	seq := RecordBlocks(Sequential(0, 1<<22, 64, 10_000), 0)
	sst := seq.Stats()
	if sst.WriteBlocks != 0 || sst.SingleThreadBlocks != sst.Blocks {
		t.Fatalf("sequential stream stats: %+v", sst)
	}
	// A +64 stride zigzags to 128: one byte under the uniform-width layout,
	// so the whole stream encodes near 1 B/access.
	if sst.BytesPerAccess > 2.5 {
		t.Fatalf("sequential stream should encode near 1 B/access, got %f", sst.BytesPerAccess)
	}
	// Uniform blocks have no control column; the histogram must come from
	// the width byte instead of misreading delta data as nibble codes.
	if want := uint64(10_000 - sst.Blocks); sst.DeltaBytes[0] != want {
		t.Fatalf("sequential stream 1-byte deltas = %d, want %d (%+v)", sst.DeltaBytes[0], want, sst.DeltaBytes)
	}
}
