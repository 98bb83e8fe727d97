package streaming

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/testutil"
)

// freeBuffers is the length of the server's free list.
func (s *Server) freeBuffers() int {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	return len(s.free)
}

// sharesBuffer reports whether a and b were carved from a common slab
// buffer.
func sharesBuffer(a, b *Asset) bool {
	for _, x := range a.bufs {
		for _, y := range b.bufs {
			if &x[:1][0] == &y[:1][0] {
				return true
			}
		}
	}
	return false
}

// TestRemovedAssetFinishesItsBody removes a lecture while a body written
// from it is held mid-stream by a reader that stopped, and registers a
// lecture of the same size at once. The body holds a reference, so the
// new lecture is carved from fresh buffers, the body finishes byte for
// byte, and the removed lecture's buffers reach the free list only once
// the body has ended; the registration after that carves them.
func TestRemovedAssetFinishesItsBody(t *testing.T) {
	data := encodeDSLAsset(t)
	s := NewServer(nil)
	s.Pacing = false
	register := func(name string) *Asset {
		t.Helper()
		a, err := s.RegisterAsset(name, asf.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	first := register("lec")
	url := "http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec"))
	resp, err := serveOnMem(t, s.Handler()).Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	// A MemNet connection buffers nothing: with the header and a first
	// stretch read, the handler holds the asset and waits in a write.
	head := make([]byte, 4096)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}

	if !s.RemoveAsset("lec") {
		t.Fatal("lec was not registered")
	}
	if n := s.freeBuffers(); n != 0 {
		t.Fatalf("%d buffers of the removed lecture went on the free list while a body reads them", n)
	}
	second := register("lec-2")
	if n := s.inst.reused.Value(); n != 0 || sharesBuffer(first, second) {
		t.Fatalf("the next lecture reused %d buffers, shared with the one a body reads: %t", n, sharesBuffer(first, second))
	}

	want, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Body(io.MultiReader(bytes.NewReader(head), resp.Body), want); err != nil {
		t.Fatal(err)
	}
	bufs := min(len(first.bufs), retiredMax)
	testutil.WaitUntil(t, 5*time.Second, func() bool { return s.freeBuffers() == bufs },
		"the removed lecture's buffers never reached the free list after its body ended")
	third := register("lec-3")
	if n := s.inst.reused.Value(); n != int64(bufs) || !sharesBuffer(first, third) || sharesBuffer(second, third) {
		t.Fatalf("the lecture after the body reused %d buffers, want the removed lecture's %d", n, bufs)
	}
}
