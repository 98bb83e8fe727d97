package relay

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/streaming"
)

// churnSeeks are the starts a churn viewer asks for: none, and two that
// land inside a dsl-300k lecture's second and third GOP (a keyframe every
// 4 s).
var churnSeeks = []time.Duration{0, 5 * time.Second, 9 * time.Second}

// encodeChurnLecture encodes lecture i of TestStoredReuseUnderChurn: 10 s
// of dsl-300k, a handful of 64 KB slab buffers, each lecture's bytes its
// own.
func encodeChurnLecture(t *testing.T, i int) []byte {
	t.Helper()
	p, err := codec.ByName("dsl-300k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: fmt.Sprint("churn ", i), Duration: 10 * time.Second, Profile: p, SlideCount: 2, Seed: int64(i + 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serveMem serves h on the MemNet host until the test ends.
func serveMem(t *testing.T, mem *netsim.MemNet, host string, h http.Handler) {
	t.Helper()
	ln, err := mem.Listen(host)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns when Close closes the listener
	t.Cleanup(func() { hs.Close() })
}

// stallingReader stops now and then before a read: with probability 1 in
// 8, for up to 3 ms.
type stallingReader struct {
	r   io.Reader
	rng *rand.Rand
}

func (s stallingReader) Read(p []byte) (int, error) {
	if s.rng.Intn(8) == 0 {
		time.Sleep(time.Duration(s.rng.Int63n(int64(3 * time.Millisecond))))
	}
	return s.r.Read(p)
}

// TestStoredReuseUnderChurn drives an edge whose cache holds about two of
// eight lectures, so nearly every demand pulls one and evicts another,
// while the origin republishes lectures and the edge drops each
// republished mirror (SyncCatalog) — both while bodies are being written
// from the copies they retire. Viewers walk the lectures with seeks,
// Range resumes and stalled reads. Retired copies' slab buffers are
// carved again for the next pull (lod_stored_buffers_reused_total), and
// every body must still be exactly what its container says
// (check.StoredBody): a buffer carved again while a body still reads it
// shows as another lecture's bytes, and under asfpoison as 0xDB.
func TestStoredReuseUnderChurn(t *testing.T) {
	const (
		lectures = 8
		viewers  = 6
		demands  = 16 // per viewer
	)
	mem := netsim.NewMemNet()
	t.Cleanup(func() { mem.Close() })
	name := func(i int) string { return fmt.Sprint("lec-", i) }
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	containers := make([][]byte, lectures)
	want := make([][][]byte, lectures) // want[i][k]: lecture i's body from churnSeeks[k]
	for i := range containers {
		containers[i] = encodeChurnLecture(t, i)
		if _, err := origin.RegisterAsset(name(i), asf.NewReader(bytes.NewReader(containers[i]))); err != nil {
			t.Fatal(err)
		}
		for _, at := range churnSeeks {
			body, err := check.StoredBody(containers[i], at)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], body)
		}
	}
	serveMem(t, mem, "origin.lod", origin.Handler())
	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge("http://origin.lod", edgeSrv)
	edge.Client = mem.Client()
	lec, _ := origin.Asset(name(0))
	edge.CacheBytes = 5 * lec.Bytes() / 2
	serveMem(t, mem, "edge.lod", edge.Handler())

	revs := make([]uint64, lectures)
	catalog := func(version uint64) proto.Catalog {
		cat := proto.Catalog{Version: version}
		for i, rev := range revs {
			cat.Assets = append(cat.Assets, proto.CatalogAsset{Name: name(i), Rev: rev})
		}
		return cat
	}
	edge.SyncCatalog(catalog(1)) // the baseline

	errc := make(chan error, viewers+1)
	stop := make(chan struct{})
	var republisher sync.WaitGroup
	republisher.Add(1)
	go func() {
		defer republisher.Done()
		rng := rand.New(rand.NewSource(1))
		for version := uint64(2); ; version++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(1+rng.Intn(4)) * time.Millisecond):
			}
			i := rng.Intn(lectures)
			if _, err := origin.PublishAsset(name(i), asf.NewReader(bytes.NewReader(containers[i]))); err != nil {
				errc <- err
				return
			}
			revs[i] = version
			edge.SyncCatalog(catalog(version))
		}
	}()

	var wg sync.WaitGroup
	for v := 0; v < viewers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + v)))
			client := mem.Client()
			defer client.CloseIdleConnections()
			for d := 0; d < demands; d++ {
				i, k := (v+d)%lectures, rng.Intn(len(churnSeeks))
				url := "http://edge.lod" + proto.Versioned(proto.StreamPath(proto.StreamVOD, name(i)))
				if churnSeeks[k] > 0 {
					url += "?" + proto.ParamStart + "=" + churnSeeks[k].String()
				}
				cut := 0 // where a resumed body is cut off and continued with Range
				if rng.Intn(3) == 0 {
					cut = 1 + rng.Intn(len(want[i][k])-1)
				}
				if err := watchStored(client, url, want[i][k], cut, rng); err != nil {
					errc <- fmt.Errorf("viewer %d, demand %d (%s, cut at %d): %w", v, d, url, cut, err)
					return
				}
			}
		}(v)
	}
	wg.Wait()
	close(stop)
	republisher.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	reused := edgeSrv.Metrics().Snapshot().Get("lod_stored_buffers_reused_total")
	if reused == 0 {
		t.Fatal("the edge never reused a stored asset's slab buffer")
	}
	t.Logf("buffers reused: %.0f at the edge, %.0f at the origin; %d evictions, %d invalidations",
		reused, origin.Metrics().Snapshot().Get("lod_stored_buffers_reused_total"),
		edge.inst.evictions.Value(), edge.inst.invalidations.Value())
}

// watchStored reads the body at url through stalls and checks it against
// want. With cut > 0 it reads the body's first cut bytes, drops the
// connection and continues from byte cut with Range under the body's
// ETag; the two parts are checked as one body. A demand that races an
// invalidation can miss the lecture (404); it is asked again, a few
// times.
func watchStored(client *http.Client, url string, want []byte, cut int, rng *rand.Rand) error {
	get := func(h http.Header, status int) (*http.Response, error) {
		for try := 0; ; try++ {
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				return nil, err
			}
			req.Header = h
			resp, err := client.Do(req)
			if err != nil {
				return nil, err
			}
			if resp.StatusCode == status {
				return resp, nil
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound || try == 3 {
				return nil, fmt.Errorf("status %d, want %d", resp.StatusCode, status)
			}
		}
	}
	resp, err := get(http.Header{}, http.StatusOK)
	if err != nil {
		return err
	}
	body := io.Reader(stallingReader{r: resp.Body, rng: rng})
	if cut > 0 {
		head := make([]byte, cut)
		_, err := io.ReadFull(body, head)
		resp.Body.Close()
		if err != nil {
			return err
		}
		resp, err = get(http.Header{"Range": {fmt.Sprintf("bytes=%d-", cut)}, "If-Range": {resp.Header.Get("Etag")}},
			http.StatusPartialContent)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		body = io.MultiReader(bytes.NewReader(head), stallingReader{r: resp.Body, rng: rng})
	}
	defer resp.Body.Close()
	return check.Body(body, want)
}
