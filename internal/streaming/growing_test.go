package streaming

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/testutil"
)

// growing registers a 12 s lecture (seek points at 0, 5 and 10 s) on s
// as a mirror pulled from a pipe, and feeds the pipe its whole stored
// body up to the second seek point. The pull declares the body's size
// and ETag as declare, if not nil, makes them of the true ones, and its
// rest runs with booked as its whole callback. The lecture's container,
// its whole body and ETag are returned with feed, which writes the rest
// of the body and ends the pull, or cuts it with err, and returns the
// error the pull ended with.
func growing(t *testing.T, s *Server, declare func(size int64, etag string) (int64, string), booked func(int64)) (data, whole []byte, etag string, second seekPoint, feed func(err error) error) {
	t.Helper()
	data = encodeTestAsset(t, 12*time.Second)
	whole = storedBody(t, data, 0)
	ref, err := NewServer(nil).RegisterAsset("ref", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.points) < 3 {
		t.Fatalf("the lecture has %d seek points; the test needs three", len(ref.points))
	}
	second = ref.points[1]
	gopEnd := len(ref.header) + int(second.off)
	pr, pw := io.Pipe()
	go func() { _, _ = pw.Write(whole[:gopEnd]) }()
	size, tag := int64(len(whole)), ref.etag[0]
	if declare != nil {
		size, tag = declare(size, tag)
	}
	_, rest, err := s.RegisterGrowing("lec", pr, size, tag)
	if err != nil {
		t.Fatal(err)
	}
	pulled := make(chan error, 1)
	go func() { pulled <- rest(booked) }()
	// The first GOP has landed once the parse waits for more.
	a, _ := s.Asset("lec")
	testutil.WaitUntil(t, 5*time.Second, func() bool { return len(a.SharedPackets()) == second.pos },
		"%d packets landed, want the first GOP's %d", len(a.SharedPackets()), second.pos)
	return data, whole, ref.etag[0], second, func(err error) error {
		if err == nil {
			_, err = pw.Write(whole[gopEnd:])
		}
		pw.CloseWithError(err)
		return <-pulled
	}
}

// TestGrowingSeekAndRange: while a mirror holds only its first GOP, a
// ?start= whose seek point has not landed and a Range resume from a
// byte that has not landed both wait for the pull, and then get exactly
// the bodies check.StoredBody derives — the same length and ETag a
// whole asset declares.
func TestGrowingSeekAndRange(t *testing.T) {
	s := NewServer(nil)
	s.Pacing = false
	data, whole, etag, second, feed := growing(t, s, nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := second.pts + time.Second // inside the second GOP
	resume := int64(len(whole) - 100) // inside the last packet
	type answer struct {
		resp *http.Response
		err  error
	}
	get := func(path string, h http.Header) <-chan answer {
		c := make(chan answer, 1)
		go func() {
			req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
			if err != nil {
				c <- answer{err: err}
				return
			}
			req.Header = h
			resp, err := http.DefaultClient.Do(req)
			c <- answer{resp, err}
		}()
		return c
	}
	seek := get(proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec"))+"?start="+start.String(), nil)
	ranged := get(proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec")),
		http.Header{"Range": {proto.FormatRange(resume)}, "If-Range": {etag}})
	select {
	case <-seek:
		t.Fatal("a seek answered before its seek point landed")
	case <-ranged:
		t.Fatal("a Range answered before its byte landed")
	case <-time.After(20 * time.Millisecond):
	}
	if err := feed(nil); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		answer <-chan answer
		status int
		want   []byte
	}{
		{"seek", seek, http.StatusOK, storedBody(t, data, start)},
		{"range", ranged, http.StatusPartialContent, whole[resume:]},
	} {
		a := <-c.answer
		if a.err != nil {
			t.Fatalf("%s: %v", c.name, a.err)
		}
		if a.resp.StatusCode != c.status || a.resp.Header.Get("Etag") != etag || a.resp.ContentLength != int64(len(c.want)) {
			t.Fatalf("%s: %s, ETag %q, length %d; want %d, %q, %d", c.name, a.resp.Status,
				a.resp.Header.Get("Etag"), a.resp.ContentLength, c.status, etag, len(c.want))
		}
		err := check.Body(a.resp.Body, c.want)
		a.resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestGrowingCut: a pull that breaks off after the first GOP ends its
// body short, answers a body whose first packet never landed with 502,
// ends Asset.Wait with its error, unregisters the mirror, and gives its
// buffers back once the body lets go — as the lod_slab_bytes gauge reads
// too.
func TestGrowingCut(t *testing.T) {
	s := NewServer(nil)
	s.Pacing = false
	_, whole, _, second, feed := growing(t, s, nil, func(int64) { t.Error("a cut pull called whole") })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec"))
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != int64(len(whole)) {
		t.Fatalf("a body of the mirror declares %d bytes, want %d", resp.ContentLength, len(whole))
	}
	late := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(url + "?start=" + (second.pts + time.Second).String())
		if err != nil {
			t.Error(err)
		}
		late <- resp
	}()
	// Both bodies wait for the pull: the first past the first GOP, the
	// seek for its seek point.
	a, _ := s.Asset("lec")
	testutil.WaitUntil(t, 5*time.Second, func() bool { a.mu.Lock(); defer a.mu.Unlock(); return len(a.waiting) == 2 },
		"the bodies do not wait for the pull")
	held := func() float64 { return s.Metrics().Snapshot().Get(`lod_slab_bytes{state="held"}`) }
	if n, _ := s.ledger(); n == 0 || held() != float64(n*asf.SlabSize) {
		t.Fatalf("lod_slab_bytes{state=\"held\"} reads %v for %d buffers held", held(), n)
	}

	waited := make(chan error, 1)
	go func() { waited <- a.Wait(context.Background()) }()
	if err := feed(errors.New("origin went away")); err == nil {
		t.Fatal("a cut pull ended with no error")
	}
	if err := <-waited; err == nil {
		t.Fatal("Asset.Wait on a cut pull returned nil")
	}
	if err := check.Body(resp.Body, whole); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("the body of a cut pull read %v, want an unexpected EOF", err)
	}
	if r := <-late; r == nil || r.StatusCode != http.StatusBadGateway {
		t.Fatalf("a seek waiting on the cut pull was answered %v, want 502", r)
	} else {
		r.Body.Close()
	}
	if _, ok := s.Asset("lec"); ok {
		t.Fatal("the cut mirror is still registered")
	}
	resp.Body.Close()
	testutil.WaitUntil(t, 5*time.Second, func() bool { n, _ := s.ledger(); return n == 0 && held() == 0 },
		"buffers still held after the last body of a cut pull ended")
}

// TestGrowingRefused: a pull whose body is not the one its source
// declared — another ETag, more or fewer bytes — is refused once read:
// whole is never called, the body of a viewer that started on it ends
// short of its declared length, and the mirror is unregistered by the
// time it does.
func TestGrowingRefused(t *testing.T) {
	for _, c := range []struct {
		name    string
		declare func(size int64, etag string) (int64, string)
	}{
		{"etag", func(size int64, _ string) (int64, string) { return size, `"0"` }},
		{"longer", func(size int64, etag string) (int64, string) { return size + 1, etag }},
		{"shorter", func(size int64, etag string) (int64, string) { return size - 1, etag }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewServer(nil)
			s.Pacing = false
			_, whole, _, _, feed := growing(t, s, c.declare, func(int64) { t.Error("a refused pull called whole") })
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			resp, err := http.Get(ts.URL + proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec")))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			read := make(chan error, 1)
			go func() { read <- check.Body(resp.Body, whole) }()
			if err := feed(nil); err == nil {
				t.Fatal("the pull was not refused")
			}
			if err := <-read; !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("the body of a refused pull read %v, want an unexpected EOF", err)
			}
			if _, ok := s.Asset("lec"); ok {
				t.Fatal("the refused mirror is still registered")
			}
		})
	}
}

// TestGrowingWholeAfterBooked: a pull calls whole while no body can have
// its last byte — the last packets have not landed and the asset is not
// whole — and Asset.Wait returns only after whole has.
func TestGrowingWholeAfterBooked(t *testing.T) {
	s := NewServer(nil)
	s.Pacing = false
	var landed int
	var wholeAtBooking bool
	booked := make(chan struct{})
	_, whole, _, _, feed := growing(t, s, nil, func(int64) {
		a, _ := s.Asset("lec")
		landed, wholeAtBooking = len(a.SharedPackets()), a.Whole()
		close(booked)
	})
	a, _ := s.Asset("lec")
	waited := make(chan error, 1)
	go func() {
		err := a.Wait(context.Background())
		select {
		case <-booked:
		default:
			err = errors.New("Asset.Wait returned before the pull called whole")
		}
		waited <- err
	}()
	if err := feed(nil); err != nil {
		t.Fatal(err)
	}
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	ref, err := NewServer(nil).RegisterAsset("ref", asf.NewReader(bytes.NewReader(encodeTestAsset(t, 12*time.Second))))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ref.SharedPackets()); wholeAtBooking || landed >= n {
		t.Fatalf("at whole %d of %d packets had landed (whole %v): a body could have read them all", landed, n, wholeAtBooking)
	}
	if !a.Whole() || len(a.SharedPackets()) != len(ref.SharedPackets()) {
		t.Fatalf("after the pull %d packets have landed, want %d", len(a.SharedPackets()), len(ref.SharedPackets()))
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := check.Body(resp.Body, whole); err != nil {
		t.Fatal(err)
	}
}

// TestPublishAfterCloseTakesNoBuffer: a publish to an ended channel with
// a viewer still attached carves nothing, so the pool hands out no
// buffer for it.
func TestPublishAfterCloseTakesNoBuffer(t *testing.T) {
	s := NewServer(nil)
	ch, err := s.CreateChannel("live", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ch.join(false)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.leave(cur)
	ch.Close()
	held, free, reused := s.pool.Stats()
	if err := ch.Publish(videoPacket(0, true, 0)); !errors.Is(err, ErrChanClosed) {
		t.Fatalf("publish after Close: %v, want ErrChanClosed", err)
	}
	if h, f, r := s.pool.Stats(); h != held || f != free || r != reused {
		t.Fatalf("pool %d held, %d free, %d reused after the publish; %d, %d, %d before", h, f, r, held, free, reused)
	}
}
