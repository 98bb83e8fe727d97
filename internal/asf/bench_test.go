package asf

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/media"
)

func benchPacket(tb testing.TB, flags uint8) Packet {
	tb.Helper()
	return Packet{
		Stream:  1,
		Kind:    media.KindVideo,
		Flags:   flags,
		PTS:     time.Second,
		Dur:     66 * time.Millisecond,
		SendAt:  time.Second,
		Seq:     42,
		Payload: bytes.Repeat([]byte{0xCD}, 1024),
	}
}

// BenchmarkPacketClone contrasts the two ways a server can hand one
// packet to another consumer: re-encoding it (a fresh buffer, a fresh
// CRC pass — the per-subscriber cost before zero-copy fan-out) versus
// handing out the pre-built shared wire image (a pointer copy). The gap
// between the two sub-benchmarks is the per-subscriber saving that
// multiplies by fan-out width on the live path.
func BenchmarkPacketClone(b *testing.B) {
	p := benchPacket(b, PacketKeyframe)

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.Payload)))
		for i := 0; i < b.N; i++ {
			if _, err := EncodePacket(p); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("shared", func(b *testing.B) {
		sp, err := NewShared(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(p.Payload)))
		var sink []byte
		for i := 0; i < b.N; i++ {
			sink = sp.Wire()
		}
		_ = sink
	})
}

// TestWriteSharedAllocFree pins the serving-side half of the zero-copy
// contract: streaming a pre-encoded packet through a Writer performs no
// heap allocations — the shared wire image goes straight to the
// underlying writer.
func TestWriteSharedAllocFree(t *testing.T) {
	w, err := NewWriter(io.Discard, Header{Title: "allocs", PacketAlign: 2048})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShared(benchPacket(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteShared(sp); err != nil { // first write emits the header
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := w.WriteShared(sp); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("WriteShared allocates %.2f times per packet; want 0", avg)
	}
}

// readBenchFile is a stored stream of n ordinary packets (1,200-byte
// payloads) behind its header.
func readBenchFile(tb testing.TB, n int) []byte {
	tb.Helper()
	p := benchPacket(tb, 0)
	p.Payload = bytes.Repeat([]byte{0xCD}, 1200)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Title: "read", PacketAlign: 2048})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.WritePacket(p); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestReadAllocs pins the reading half: in the steady state — window
// allocated, fills and compactions included — a lent packet costs no
// allocation at all, and an owned one a share of its slab's buffer and
// header chunk: a 16 KB buffer holds 13 of these packets and a chunk 64
// headers, so 200 packets make about 20 allocations. Nothing is allocated per
// field, and nothing is re-encoded.
func TestReadAllocs(t *testing.T) {
	const runs = 200
	data := readBenchFile(t, runs+1) // AllocsPerRun makes one warm-up call
	for _, tc := range []struct {
		name string
		max  float64
		read func(*Reader) error
	}{
		{"ReadPacket", 0, func(r *Reader) error { _, err := r.ReadPacket(); return err }},
		{"ReadShared", 0.1, func(r *Reader) error { _, err := r.ReadShared(); return err }},
	} {
		r := NewReader(bytes.NewReader(data))
		if _, err := r.ReadHeader(); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(runs, func() {
			if err := tc.read(r); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.max {
			t.Errorf("%s allocates %.2f times per packet; want at most %.1f", tc.name, avg, tc.max)
		}
	}
}

// countingReader counts the Reads its source serves.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// BenchmarkReader is the receive path per packet in both read forms:
// lent in place (the player, every Fetch consumer) and copied out to own
// (the edge's mirror pull and live relay). reads/packet is the source
// Reads per packet: a bulk source fills the window, so it grows to
// windowMax and a read brings about 50 of these packets. Each stream is
// read to io.EOF, as a session reads its body, so its window passes to
// the next stream's reader.
func BenchmarkReader(b *testing.B) {
	const packets = 512
	data := readBenchFile(b, packets)
	bytesSrc := bytes.NewReader(data)
	src := &countingReader{r: bytesSrc}
	for _, bc := range []struct {
		name string
		read func(*Reader) error
	}{
		{"ReadPacket", func(r *Reader) error { _, err := r.ReadPacket(); return err }},
		{"ReadShared", func(r *Reader) error { _, err := r.ReadShared(); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(1200)
			var r *Reader
			open := func() { // a new stream: its header is in the figure
				bytesSrc.Reset(data)
				r = NewReader(src)
				if _, err := r.ReadHeader(); err != nil {
					b.Fatal(err)
				}
			}
			src.reads = 0
			open()
			for i := 0; i < b.N; i++ {
				err := bc.read(r)
				if err == io.EOF {
					open()
					err = bc.read(r)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(src.reads)/float64(b.N), "reads/packet")
		})
	}
}
