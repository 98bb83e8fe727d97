package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/streaming"
)

func TestRegisterDemo(t *testing.T) {
	srv := streaming.NewServer(nil)
	if err := registerDemo(srv); err != nil {
		t.Fatalf("registerDemo: %v", err)
	}
	a, ok := srv.Asset("demo")
	if !ok {
		t.Fatal("demo asset not registered")
	}
	if a.Header.Title != "Demo lecture" || len(a.SharedPackets()) == 0 {
		t.Fatalf("demo asset malformed: %q, %d packets", a.Header.Title, len(a.SharedPackets()))
	}
}

func TestAssetFlagParsing(t *testing.T) {
	flags := assetFlags{}
	if err := flags.Set("name=path.asf"); err != nil {
		t.Fatal(err)
	}
	if flags["name"] != "path.asf" {
		t.Fatalf("flags = %v", flags)
	}
	for _, bad := range []string{"nopath", "=x", "y="} {
		if err := flags.Set(bad); err == nil {
			t.Errorf("bad flag %q accepted", bad)
		}
	}
	if flags.String() == "" {
		t.Error("String() empty")
	}
}

func TestRunRejectsMissingAssetFile(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:0", "-asset", "x=/does/not/exist"}); err == nil {
		t.Fatal("missing asset file accepted")
	}
}

func TestParseConfigClusterFlags(t *testing.T) {
	// Registering with a remote registry requires an advertised edge URL.
	if _, err := parseConfig([]string{"-registry", "http://reg:9090"}); err == nil {
		t.Fatal("registry URL without -edge accepted")
	}
	// Edges mirror origin content; local asset flags conflict.
	if _, err := parseConfig([]string{"-origin", "http://origin:8080", "-demo"}); err == nil {
		t.Fatal("-origin with -demo accepted")
	}

	c, err := parseConfig([]string{
		"-origin", "http://origin:8080",
		"-edge", "http://edge1:8081",
		"-registry", "http://origin:9090",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.hostsRegistry() {
		t.Fatal("registry URL misread as a listen address")
	}

	c, err = parseConfig([]string{"-demo", "-registry", ":9090", "-capacity-bps", "1000000"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.hostsRegistry() {
		t.Fatal("listen address misread as a registry URL")
	}
	if c.capacity != 1_000_000 {
		t.Fatalf("capacity = %d", c.capacity)
	}
}

func TestParseConfigCacheAndMetricsFlags(t *testing.T) {
	// The mirror cache bound only makes sense on an edge.
	if _, err := parseConfig([]string{"-cache-bytes", "1024"}); err == nil {
		t.Fatal("-cache-bytes without -origin accepted")
	}
	if _, err := parseConfig([]string{"-origin", "http://o:8080", "-cache-bytes", "-1"}); err == nil {
		t.Fatal("negative -cache-bytes accepted")
	}

	c, err := parseConfig([]string{"-origin", "http://o:8080", "-cache-bytes", "4096"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cacheBytes != 4096 {
		t.Fatalf("cacheBytes = %d", c.cacheBytes)
	}

	// Metrics are not optional: every role's handler serves its own
	// /v1/metrics and /v1/status, so there is no flag to turn them off.
	if _, err := parseConfig([]string{"-metrics=false"}); err == nil {
		t.Fatal("-metrics accepted, but there is no way to turn metrics off")
	}
}

func TestParseConfigDrainFlag(t *testing.T) {
	c, err := parseConfig([]string{"-drain", "3s"})
	if err != nil {
		t.Fatal(err)
	}
	if c.drain != 3*time.Second {
		t.Fatalf("drain = %v", c.drain)
	}
	if _, err := parseConfig([]string{"-drain", "-1s"}); err == nil {
		t.Fatal("negative -drain accepted")
	}
	// The default leaves room for in-flight sessions.
	c, err = parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.drain <= 0 {
		t.Fatalf("default drain = %v, want positive", c.drain)
	}
}

// TestListenerDropsSilentConnection: every listener runs under a header
// deadline and no write deadline, so a client that connects and never
// sends a request is disconnected; and shutdown closes the listener.
func TestListenerDropsSilentConnection(t *testing.T) {
	srv := streaming.NewServer(nil)
	hs := newHTTPServer("127.0.0.1:0", srv.Handler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("listener without header/idle deadlines: %v / %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v would cut a lecture short", hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond // the production value, shortened for the test
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Nothing is sent. The server must hang up, not wait: the copy ends
	// at EOF (or a reset) well before the read deadline.
	var ne net.Error
	if _, err := io.Copy(io.Discard, conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("silent connection still open after 50× the header deadline")
	}

	if err := shutdown(&config{drain: time.Second}, srv, []*http.Server{hs}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v after shutdown, want ErrServerClosed", err)
	}
	if !srv.Draining() {
		t.Fatal("shutdown did not drain the streaming server")
	}
}
