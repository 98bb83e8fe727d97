package asf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/media"
)

// windowFile encodes a stored container of n packets whose payload sizes
// cycle through sizes, and returns it with the packets as written (Seq
// assigned) and the offset at which every object ends: the header and
// each packet.
func windowFile(t testing.TB, n int, sizes ...int) ([]byte, []Packet, []int) {
	t.Helper()
	header, err := EncodeHeader(sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{len(header)}
	packets := make([]Packet, n)
	for i := range packets {
		p := Packet{
			Stream: media.StreamVideo, Kind: media.KindVideo,
			PTS: time.Duration(i) * 40 * time.Millisecond, Dur: 40 * time.Millisecond,
			Payload: bytes.Repeat([]byte{byte(i + 1)}, sizes[i%len(sizes)]),
		}
		if i%5 == 0 {
			p.Flags = PacketKeyframe
		}
		if p.Seq, err = w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		packets[i] = p
		bounds = append(bounds, buf.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), packets, bounds
}

// legacyIndex is the index object a writer closed a stored stream with
// before none did: "IX", the entry count, then each entry's PTS and Seq.
// Containers that carry one still arrive, and a reader checks and skips
// it.
func legacyIndex(ix Index) []byte {
	b := binary.LittleEndian.AppendUint32([]byte("IX"), uint32(len(ix)))
	for _, e := range ix {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.PTS))
		b = binary.LittleEndian.AppendUint32(b, e.Seq)
	}
	return b
}

// withLegacyIndex is data closed by the legacy index of its seek points.
func withLegacyIndex(t testing.TB, data []byte) []byte {
	t.Helper()
	_, _, ix, err := ReadAll(bytes.NewReader(data))
	if err != nil || len(ix) == 0 {
		t.Fatalf("container has %d seek points: %v", len(ix), err)
	}
	return append(data, legacyIndex(ix)...)
}

// chunkReader hands its source out at most n bytes a Read, so every
// object straddles fills in a different place than a whole-window read
// would leave it.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// emptyWindows takes every window off the free list, so the next reader
// starts from a new windowSize one.
func emptyWindows() {
	for {
		select {
		case <-idleWindows:
		default:
			return
		}
	}
}

// readForms are the reader's two read methods behind one signature; the
// lent packet is cloned so both can be collected.
var readForms = []struct {
	name string
	read func(*Reader) (Packet, error)
}{
	{"ReadPacket", func(r *Reader) (Packet, error) {
		p, err := r.ReadPacket()
		return p.Clone(), err
	}},
	{"ReadShared", func(r *Reader) (Packet, error) {
		sp, err := r.ReadShared()
		if err != nil {
			return Packet{}, err
		}
		if want, _ := EncodePacket(sp.Packet()); !bytes.Equal(sp.Wire(), want) {
			return Packet{}, errors.New("shared wire image is not the packet's encoding")
		}
		return sp.Packet(), nil
	}},
}

// However the source cuts the stream up — whole, a prime-sized chunk
// that puts every fill mid-packet, a byte at a time, EOF delivered with
// the last bytes — both read forms return every packet as written, then
// skip a legacy trailing index and end cleanly with io.EOF.
func TestReaderPacketsStraddleFills(t *testing.T) {
	// 60 packets of ~1.2 KB: several windows' worth.
	data, want, _ := windowFile(t, 60, 1200, 37, 0, 1399)
	data = withLegacyIndex(t, data)
	sources := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"chunk977", func(r io.Reader) io.Reader { return chunkReader{r, 977} }},
		{"one-byte", iotest.OneByteReader},
		{"data-with-eof", iotest.DataErrReader},
	}
	for _, src := range sources {
		for _, form := range readForms {
			t.Run(src.name+"/"+form.name, func(t *testing.T) {
				emptyWindows()
				r := NewReader(src.wrap(bytes.NewReader(data)))
				if _, err := r.ReadHeader(); err != nil {
					t.Fatal(err)
				}
				for i, w := range want {
					got, err := form.read(r)
					if err != nil {
						t.Fatalf("packet %d: %v", i, err)
					}
					if !reflect.DeepEqual(got, w) {
						t.Fatalf("packet %d = %+v, want %+v", i, got, w)
					}
				}
				if len(r.buf) != windowSize {
					t.Fatalf("window is %d bytes after ordinary packets, want %d", len(r.buf), windowSize)
				}
				// The trailing index, straddling fills, is consumed whole: the
				// end of the stream is clean, and it sticks.
				for i := 0; i < 2; i++ {
					if _, err := form.read(r); err != io.EOF {
						t.Fatalf("after the last packet: %v, want io.EOF", err)
					}
				}
			})
		}
	}
}

// A packet larger than the window makes the window grow to hold it, and
// the window stays grown — the next packet of that size is parsed in place
// with no new buffer — as long as it is within windowMax. A packet beyond
// windowMax gets a buffer for itself alone, and the reader is back at
// windowSize on the next read. The packets around both are unharmed.
func TestReaderOutsizedPacket(t *testing.T) {
	const slide, huge = 24 << 10, windowMax + 11
	data, want, _ := windowFile(t, 12, 1200, 1200, slide, 1200, 1200, slide, 1200, huge, 1200, 1200, slide, 1200)
	for _, form := range readForms {
		t.Run(form.name, func(t *testing.T) {
			emptyWindows()
			r := NewReader(chunkReader{bytes.NewReader(data), 5000})
			if _, err := r.ReadHeader(); err != nil {
				t.Fatal(err)
			}
			var windows []int // the window's length each time it changes
			for i, w := range want {
				got, err := form.read(r)
				if err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("packet %d (%d bytes) differs from what was written", i, len(w.Payload))
				}
				if len(windows) == 0 || windows[len(windows)-1] != len(r.buf) {
					windows = append(windows, len(r.buf))
				}
			}
			if _, err := form.read(r); err != io.EOF {
				t.Fatalf("after the last packet: %v, want io.EOF", err)
			}
			// Grown once for the first slide and kept for the second; replaced
			// for the huge packet and dropped after it; grown again for the
			// third slide.
			grown := packetWireSize + slide
			if want := []int{windowSize, grown, packetWireSize + huge, windowSize, grown}; !reflect.DeepEqual(windows, want) {
				t.Fatalf("window sizes %v, want %v", windows, want)
			}
		})
	}
}

// A length field beyond MaxPayload is refused from the fixed header
// alone: nothing is allocated for it and the window does not grow — the
// one the refusal lists is the reader's first, windowSize long.
func TestReaderMaxPayloadBeforeAllocation(t *testing.T) {
	data, _, bounds := windowFile(t, 1, 64)
	lenField := data[bounds[0]+packetWireSize-4:]
	binary.LittleEndian.PutUint32(lenField, MaxPayload+1)
	for _, form := range readForms {
		emptyWindows()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(data))
		if _, err := r.ReadHeader(); err != nil {
			t.Fatal(err)
		}
		if _, err := form.read(r); !errors.Is(err, ErrLimit) {
			t.Fatalf("%s: %v, want ErrLimit", form.name, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*windowSize {
			t.Fatalf("%s: refusing the packet allocated %d bytes", form.name, got)
		}
		if len(idleWindows) != 1 {
			t.Fatalf("%s: %d windows listed after the refusal, want 1", form.name, len(idleWindows))
		}
		if w := <-idleWindows; len(w) != windowSize {
			t.Fatalf("%s: window grew to %d bytes for a refused packet", form.name, len(w))
		}
	}
	binary.LittleEndian.PutUint32(lenField, MaxPayload)
	r := NewReader(bytes.NewReader(data))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("MaxPayload promised, 64 bytes sent: %v, want ErrCorrupt", err)
	}
}

// A reader that has read its stream to the end lists its one window, and
// the next reader's first fill takes that window instead of making one.
func TestReaderHandsWindowOn(t *testing.T) {
	data, want, _ := windowFile(t, 30, 1200, 24<<10)
	for _, form := range readForms {
		emptyWindows()
		r := NewReader(bytes.NewReader(data))
		if _, err := r.ReadHeader(); err != nil {
			t.Fatal(err)
		}
		for range want {
			if _, err := form.read(r); err != nil {
				t.Fatal(err)
			}
		}
		window := r.buf
		if _, err := form.read(r); err != io.EOF {
			t.Fatalf("%s: after the last packet: %v, want io.EOF", form.name, err)
		}
		if r.buf != nil || len(idleWindows) != 1 {
			t.Fatalf("%s: ended reader keeps %d bytes, %d windows listed; want none kept, 1 listed",
				form.name, len(r.buf), len(idleWindows))
		}

		next := NewReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := next.peek(headerPrefixSize)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if &next.buf[0] != &window[0] || len(idleWindows) != 0 {
			t.Fatalf("%s: the next reader's first fill did not take the listed window", form.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= windowSize {
			t.Fatalf("%s: the next reader's first fill allocated %d bytes", form.name, got)
		}
	}
}

// A window over windowMax — one outsized object's own buffer — is never
// listed: not by a stream that ends inside that object, nor directly.
func TestReaderNeverListsOutsizedWindow(t *testing.T) {
	const huge = windowMax + 11
	data, _, bounds := windowFile(t, 1, huge)
	emptyWindows()
	r := NewReader(bytes.NewReader(data[:bounds[1]-1]))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("stream cut inside a %d-byte packet: %v, want ErrUnexpectedEOF", huge, err)
	}
	if len(idleWindows) != 0 {
		t.Fatalf("a %d-byte window was listed", len(<-idleWindows))
	}
	if listWindow(make([]byte, windowMax+1)); len(idleWindows) != 0 {
		t.Fatalf("a %d-byte window was listed", windowMax+1)
	}
}

// cutSource hands data out in reads that never cross a cut, and records
// the room each read was given and how many bytes had arrived before the
// first read given more than windowSize.
type cutSource struct {
	data      []byte
	cuts      []int // ascending offsets no read crosses
	off       int
	rooms     []int
	grownAt   int // bytes delivered before the first read into a grown window; -1 if none
	delivered int
}

func newCutSource(data []byte, cuts []int) *cutSource {
	return &cutSource{data: data, cuts: cuts, grownAt: -1}
}

func (c *cutSource) Read(p []byte) (int, error) {
	if c.off == len(c.data) {
		return 0, io.EOF
	}
	c.rooms = append(c.rooms, len(p))
	if len(p) > windowSize && c.grownAt < 0 {
		c.grownAt = c.delivered
	}
	for len(c.cuts) > 0 && c.cuts[0] <= c.off {
		c.cuts = c.cuts[1:]
	}
	end := len(c.data)
	if len(c.cuts) > 0 {
		end = c.cuts[0]
	}
	n := copy(p, c.data[c.off:end])
	c.off += n
	c.delivered += n
	return n, nil
}

// A source that keeps the window full — every read returns all the room
// it was given — earns a windowMax window once windowMax-windowSize bytes
// have arrived that way; a source that returns a packet a read, and a
// burst at join shorter than that followed by a trickle, never do. A
// longer burst — a live catch-up GOP of a fast profile can be 150 KB —
// does. The window a reader ends with is the one it lists.
func TestReaderWindowGrowsOnlyForBulkSource(t *testing.T) {
	data, want, bounds := windowFile(t, 200, 1200)
	// burst is one read of n bytes, then a packet a read.
	burst := func(n int) []int {
		cuts := []int{n}
		for _, b := range bounds {
			if b > n {
				cuts = append(cuts, b)
			}
		}
		return cuts
	}
	for _, tc := range []struct {
		name   string
		cuts   []int
		window int // the window listed at the end
	}{
		{"bulk", nil, windowMax},
		{"packet-a-read", bounds, windowSize},
		{"burst-then-trickle", burst(35 << 10), windowSize},
		{"long-burst-then-trickle", burst(100 << 10), windowMax},
	} {
		t.Run(tc.name, func(t *testing.T) {
			emptyWindows()
			src := newCutSource(data, tc.cuts)
			r := NewReader(src)
			if _, err := r.ReadHeader(); err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				p, err := r.ReadPacket()
				if err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
				if !bytes.Equal(p.Payload, w.Payload) || p.Seq != w.Seq {
					t.Fatalf("packet %d differs from what was written", i)
				}
			}
			if _, err := r.ReadPacket(); err != io.EOF {
				t.Fatalf("after the last packet: %v, want io.EOF", err)
			}
			if got := len(<-idleWindows); got != tc.window {
				t.Fatalf("listed a %d-byte window, want %d", got, tc.window)
			}
			if tc.window == windowSize {
				if src.grownAt >= 0 {
					t.Fatalf("a read was given %d bytes of room after %d bytes", slices.Max(src.rooms), src.grownAt)
				}
				return
			}
			// Grown on the first move after 48 KB of full reads: no sooner,
			// and within one more window's worth.
			if src.grownAt < windowMax-windowSize || src.grownAt >= windowMax {
				t.Fatalf("the window grew after %d bytes, want in [%d, %d)", src.grownAt, windowMax-windowSize, windowMax)
			}
			t.Logf("grown after %d bytes; %d reads for %d packets", src.grownAt, len(src.rooms), len(want))
		})
	}
}

// A read after the terminal error returns that error again and allocates
// nothing: the reader has no window left to touch.
func TestReaderReadAfterEndAllocatesNothing(t *testing.T) {
	data, _, _ := windowFile(t, 3, 300)
	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)-1] ^= 0x01
	for _, src := range [][]byte{data, corrupt} {
		r := NewReader(bytes.NewReader(src))
		if _, err := r.ReadHeader(); err != nil {
			t.Fatal(err)
		}
		var end error
		for end == nil {
			_, end = r.ReadPacket()
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := r.ReadPacket(); err != end {
				t.Fatalf("ReadPacket after %v: %v", end, err)
			}
			if _, err := r.ReadShared(); err != end {
				t.Fatalf("ReadShared after %v: %v", end, err)
			}
			if _, err := r.ReadHeader(); err != nil {
				t.Fatalf("ReadHeader after %v: %v", end, err)
			}
		})
		if allocs != 0 || r.buf != nil {
			t.Fatalf("reads after %v: %v allocations, window of %d bytes", end, allocs, len(r.buf))
		}
	}
}

// Under asfpoison a window is overwritten with 0xDB before it is listed,
// so a payload kept past the end of its stream — not only the last one
// lent — reads as poison, never as the next session's bytes.
func TestReaderPoisonsListedWindow(t *testing.T) {
	if !poisonLent {
		t.Skip("the window is poisoned only under -tags asfpoison")
	}
	data, want, _ := windowFile(t, 3, 100)
	emptyWindows()
	r := NewReader(bytes.NewReader(data))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	var kept [][]byte // lent payloads, wrongly kept without a Clone
	for range want {
		p, err := r.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, p.Payload)
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Fatalf("after the last packet: %v, want io.EOF", err)
	}
	poison := func(b []byte) bool { return len(bytes.Trim(b, "\xdb")) == 0 }
	for i, b := range kept {
		if !poison(b) {
			t.Fatalf("packet %d's kept payload survived the end of its stream", i)
		}
	}
	if w := <-idleWindows; !poison(w) {
		t.Fatal("the listed window is not poisoned")
	}
}

// A legacy index's entry count allocates nothing: the reader checks what
// the index lists and keeps none of it. A trailer that promises
// MaxIndexEntries and carries one is corrupt, found for the price of an
// ordinary read.
func TestReaderIndexCountBeforeAllocation(t *testing.T) {
	data, _, bounds := windowFile(t, 1, 64)
	data = withLegacyIndex(t, data)
	binary.LittleEndian.PutUint32(data[bounds[1]+len(indexMagic):], MaxIndexEntries)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(data))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("MaxIndexEntries promised, one sent: %v, want ErrCorrupt", err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a one-packet stream allocated %d bytes", got)
	}
}

// Cut the stream, closed by a legacy index, at every offset: only a cut
// exactly between objects is a clean end of stream. Anywhere else —
// mid-magic, mid-header, mid-payload, mid-index — is ErrCorrupt or
// io.ErrUnexpectedEOF, never io.EOF, or a client would take a severed
// stream for a complete one; and the failure sticks.
func TestReaderTruncationIsNeverCleanEOF(t *testing.T) {
	data, want, bounds := windowFile(t, 3, 300, 0, 45)
	data = withLegacyIndex(t, data)
	boundary := make(map[int]int) // offset → packets before it
	for i, off := range bounds {
		boundary[off] = i
	}
	boundary[len(data)] = len(want)
	for _, form := range readForms {
		for cut := 0; cut <= len(data); cut++ {
			r := NewReader(bytes.NewReader(data[:cut]))
			if _, err := r.ReadHeader(); err != nil {
				if cut >= bounds[0] {
					t.Fatalf("%s cut %d: header: %v", form.name, cut, err)
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s cut %d: header: %v, want an EOF error", form.name, cut, err)
				}
				continue
			}
			if cut < bounds[0] {
				t.Fatalf("%s cut %d: truncated header accepted", form.name, cut)
			}
			n := 0
			var err error
			for {
				var p Packet
				if p, err = form.read(r); err != nil {
					break
				}
				if !reflect.DeepEqual(p, want[n]) {
					t.Fatalf("%s cut %d: packet %d differs", form.name, cut, n)
				}
				n++
			}
			if complete, clean := boundary[cut]; clean {
				if err != io.EOF || n != complete {
					t.Fatalf("%s cut %d (a frame boundary): %d packets then %v, want %d then io.EOF", form.name, cut, n, err, complete)
				}
			} else if err == io.EOF || !(errors.Is(err, ErrCorrupt) || errors.Is(err, io.ErrUnexpectedEOF)) {
				t.Fatalf("%s cut %d (mid-object, after %d packets): %v, want ErrCorrupt or ErrUnexpectedEOF", form.name, cut, n, err)
			}
			if _, again := form.read(r); again != err {
				t.Fatalf("%s cut %d: second read %v, first %v", form.name, cut, again, err)
			}
		}
	}
}

// One flipped payload byte is ErrChecksum in both read forms, wherever in
// the window the packet lies.
func TestReaderChecksumBothForms(t *testing.T) {
	data, want, bounds := windowFile(t, 20, 1200)
	for _, bad := range []int{0, 13, 19} { // 13 straddles the first fill
		flipped := bytes.Clone(data)
		flipped[bounds[bad]+packetWireSize+600] ^= 0x01
		for _, form := range readForms {
			r := NewReader(bytes.NewReader(flipped))
			if _, err := r.ReadHeader(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < bad; i++ {
				if p, err := form.read(r); err != nil || !reflect.DeepEqual(p, want[i]) {
					t.Fatalf("%s: packet %d before the flipped one: %v", form.name, i, err)
				}
			}
			if _, err := form.read(r); !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: flipped packet %d: %v, want ErrChecksum", form.name, bad, err)
			}
		}
	}
}
