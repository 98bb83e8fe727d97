package netsim

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
)

// MemNet is an in-process network of named listeners. Every connection
// is a net.Pipe, so a whole origin + registry + N-edge cluster plus
// thousands of HTTP clients runs inside one process without consuming
// a single TCP port — the transport the benchmark drives its sessions
// over, where real sockets would exhaust the ephemeral port range.
//
// Hosts are arbitrary names ("origin.lod", "edge-1.lod"); the port part
// of a dial address is ignored, so ordinary http://host URLs work
// unchanged. MemNet is safe for concurrent use.
type MemNet struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	closed    bool
}

// NewMemNet creates an empty in-process network.
func NewMemNet() *MemNet {
	return &MemNet{listeners: make(map[string]*memListener)}
}

// Listen registers a listener for the given host name (no port). It
// fails if the host is already taken or the network is closed.
func (m *MemNet) Listen(host string) (net.Listener, error) {
	if host == "" {
		return nil, fmt.Errorf("netsim: empty memnet host")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("netsim: memnet closed")
	}
	if _, ok := m.listeners[host]; ok {
		return nil, fmt.Errorf("netsim: memnet host %q already listening", host)
	}
	l := &memListener{host: host, conns: make(chan net.Conn), done: make(chan struct{}), net: m}
	m.listeners[host] = l
	return l, nil
}

// DialContext connects to the named host, satisfying the signature of
// http.Transport.DialContext. The port in addr is ignored.
func (m *MemNet) DialContext(ctx context.Context, _, addr string) (net.Conn, error) {
	host := addr
	if h, _, err := net.SplitHostPort(addr); err == nil {
		host = h
	}
	m.mu.Lock()
	l, ok := m.listeners[host]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netsim: memnet host %q not listening", host)
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("netsim: memnet host %q closed", host)
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

// Client returns an http.Client whose transport dials through the
// in-process network. Each call returns a fresh client (and connection
// pool); clients may be shared by any number of goroutines.
func (m *MemNet) Client() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         m.DialContext,
		MaxIdleConnsPerHost: 64,
	}}
}

// Close shuts every listener down; in-flight connections are left to
// their owners.
func (m *MemNet) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, l := range m.listeners {
		l.closeLocked()
	}
	m.listeners = make(map[string]*memListener)
}

// memListener implements net.Listener over a channel of pipe ends.
type memListener struct {
	host  string
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
	net   *MemNet
}

// Accept implements net.Listener.
func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("netsim: memnet listener %q closed", l.host)
	}
}

// Close implements net.Listener and releases the host name for reuse.
func (l *memListener) Close() error {
	l.net.mu.Lock()
	if l.net.listeners[l.host] == l {
		delete(l.net.listeners, l.host)
	}
	l.net.mu.Unlock()
	l.closeLocked()
	return nil
}

func (l *memListener) closeLocked() { l.once.Do(func() { close(l.done) }) }

// Addr implements net.Listener.
func (l *memListener) Addr() net.Addr { return memAddr(l.host) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }
