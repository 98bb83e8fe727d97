package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/encoder"
	"repro/internal/media"
	"repro/internal/proto"
	"repro/internal/streaming"
)

// newLoneServer serves one stored asset from a streaming.Server with no
// registry in front of it — what `lodplay -url` at a lone lodserver
// talks to — and returns the container it published.
func newLoneServer(t *testing.T, asset string, dur time.Duration, pacing bool) (*streaming.Server, *httptest.Server, []byte) {
	t.Helper()
	srv := streaming.NewServer(nil)
	srv.Pacing = pacing
	data := encodeTestLecture(t, dur, encoder.Config{})
	if _, err := srv.RegisterAsset(asset, asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, data
}

// TestPlayDirectNode: a 200 on the first leg means the base URL is
// itself a serving node, and the session plays there.
func TestPlayDirectNode(t *testing.T) {
	srv, ts, _ := newLoneServer(t, "lec", 2*time.Second, false)
	asset, _ := srv.Asset("lec")
	sess, err := New(ts.URL).Open(context.Background(), Spec{Kind: VOD, Name: "lec"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Play()
	if err != nil {
		t.Fatal(err)
	}
	var video int
	for _, sp := range asset.SharedPackets() {
		if sp.Packet().Kind == media.KindVideo {
			video++
		}
	}
	if m.VideoFrames != video || m.SlidesShown != 2 || m.BrokenFrames != 0 {
		t.Fatalf("metrics = %+v, want all %d video frames and both slides", m, video)
	}
	st := sess.Stats()
	if want := strings.TrimPrefix(ts.URL, "http://"); st.Edge != want || st.Retries != 0 {
		t.Fatalf("stats = %+v, want served by %s with no retries", st, want)
	}
	if got := srv.Stats().VODSessions; got != 1 {
		t.Fatalf("server VOD sessions = %d, want 1", got)
	}
}

// TestCancelUnblocksDirectBody: cancelling the session's context aborts
// a body read that is blocked on a paced server, and the error says so.
func TestCancelUnblocksDirectBody(t *testing.T) {
	_, ts, _ := newLoneServer(t, "lec", 20*time.Second, true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var read atomic.Int64
	sess, err := New(ts.URL).Open(ctx, Spec{Kind: VOD, Name: "lec", Failover: 3,
		WrapBody: func(r io.Reader) io.Reader { return countingReader{r, &read} }})
	if err != nil {
		t.Fatal(err)
	}
	done := playAsync(sess)
	deadline := time.Now().Add(10 * time.Second)
	for read.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case res := <-done:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("Play error = %v, want context.Canceled in chain", res.err)
		}
		if st := sess.Stats(); st.Retries != 0 {
			t.Fatalf("stats = %+v: a cancelled session retried", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Play did not return within 5s of cancellation: the in-flight body is not abortable")
	}
}

// TestDirectNodeErrors: a missing stream and an unreachable node are
// errors, not empty plays.
func TestDirectNodeErrors(t *testing.T) {
	_, ts, _ := newLoneServer(t, "lec", time.Second, false)
	sess, err := New(ts.URL).Open(context.Background(), Spec{Kind: VOD, Name: "none", Failover: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Play(); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("missing stream: err = %v, want the 404", err)
	}
	if st := sess.Stats(); st.Retries != 0 {
		t.Fatalf("a 404 was retried: %+v", st)
	}
	sess, err = New("http://127.0.0.1:1").Open(context.Background(), Spec{Kind: VOD, Name: "lec"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Play(); err == nil {
		t.Fatal("unreachable node accepted")
	}
}

// TestDefaultHTTPClientTimeouts: without WithHTTPClient the SDK bounds
// connecting and waiting for response headers, but never the body — a
// lecture streams for minutes. A supplied client's transport is the one
// both legs use (the benchmark's MemNet dialer lives there).
func TestDefaultHTTPClientTimeouts(t *testing.T) {
	c := New("http://registry", WithHTTPClient(nil))
	if c.http != proto.DefaultClient {
		t.Fatal("New without a client does not use proto.DefaultClient")
	}
	if proto.DefaultClient.Timeout != 0 {
		t.Fatalf("default client has an overall timeout %v: it would cut lecture bodies", proto.DefaultClient.Timeout)
	}
	tr, ok := proto.DefaultClient.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default transport is %T", proto.DefaultClient.Transport)
	}
	if tr.ResponseHeaderTimeout <= 0 {
		t.Fatalf("response-header timeout = %v, want a bound", tr.ResponseHeaderTimeout)
	}
	if tr.DialContext == nil {
		t.Fatal("default transport has no bounded dialer")
	}
	if c.noFollow.Transport != tr {
		t.Fatal("the no-redirect leg does not share the default transport")
	}

	mine := &http.Client{Transport: &http.Transport{}}
	if c := New("http://registry", WithHTTPClient(mine)); c.http != mine || c.noFollow.Transport != mine.Transport {
		t.Fatal("a supplied client's transport is not used for both legs")
	}
}
