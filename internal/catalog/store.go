package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
)

// stateFilePrefix/-Suffix frame the history entries
// (state-<version>.json).
const (
	stateFilePrefix = "state-"
	stateFileSuffix = ".json"
)

// defaultKeepHistory is how many history entries survive pruning. More
// than one so a corrupt newest file has somewhere to walk back to;
// bounded so a long-lived registry doesn't grow the directory forever.
const defaultKeepHistory = 8

// ErrClosed is returned by Apply after Close.
var ErrClosed = errors.New("catalog: store closed")

// ErrNoSnapshot is returned by Rollback when the requested version has
// no retained history entry — memory-only store, a version that never
// persisted, or one already pruned past the keep horizon.
var ErrNoSnapshot = errors.New("catalog: no snapshot for version")

// Snapshot pairs one immutable state version with its pre-marshaled
// catalog listing — the bytes PathCatalog serves verbatim, rendered
// once at swap time rather than per request.
type Snapshot struct {
	State       State
	CatalogJSON []byte
	// VersionString is proto.FormatCatalogVersion(State.Version),
	// pre-rendered so setting CatalogVersionHeader on the redirect hot
	// path allocates nothing.
	VersionString string
}

// Store owns the durable control-plane state. Readers load the current
// Snapshot from an atomic pointer (lock-free, always fully consistent);
// writers serialize on mu in Apply.
type Store struct {
	dir  string // "" = memory-only (tests, registries run without -state-dir)
	keep int

	cur atomic.Pointer[Snapshot]

	mu     sync.Mutex // serializes Apply and Close
	closed bool
}

// Open restores a store from dir, creating the directory if needed. It
// walks the history newest-version-first and restores the first entry
// that is valid (see loadEntry), starting fresh only when none is. dir
// == "" opens a memory-only store with no persistence (every Apply
// still versions and swaps atomically).
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, keep: defaultKeepHistory}
	st := State{Schema: StateSchema}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("catalog: open %s: %w", dir, err)
		}
		st = restore(dir)
	}
	s.cur.Store(newSnapshot(st))
	return s, nil
}

func newSnapshot(st State) *Snapshot {
	return &Snapshot{
		State:         st,
		CatalogJSON:   marshalCatalog(st),
		VersionString: proto.FormatCatalogVersion(st.Version),
	}
}

func marshalCatalog(st State) []byte {
	data, err := json.Marshal(st.Catalog())
	if err != nil {
		panic("catalog: marshal catalog: " + err.Error())
	}
	return append(data, '\n')
}

// restore loads the newest valid history entry from dir; see Open.
func restore(dir string) State {
	for _, v := range historyVersions(dir) {
		if st, err := loadEntry(dir, v); err == nil {
			return st
		}
	}
	return State{Schema: StateSchema}
}

// loadEntry reads the history entry of version from dir. An entry is
// valid when it decodes and its body's Version is the one its file name
// carries: the rename that gives it that name is the commit.
func loadEntry(dir string, version uint64) (State, error) {
	b, err := os.ReadFile(filepath.Join(dir, stateFileName(version)))
	if err != nil {
		return State{}, err
	}
	st, err := DecodeState(b)
	if err != nil {
		return State{}, err
	}
	if st.Version != version {
		return State{}, fmt.Errorf("catalog: %s holds version %d", stateFileName(version), st.Version)
	}
	return st, nil
}

// historyVersions lists the state-file versions present in dir, newest
// first.
func historyVersions(dir string) []uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []uint64
	for _, e := range entries {
		if v, ok := parseStateFileName(e.Name()); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

func stateFileName(version uint64) string {
	return stateFilePrefix + strconv.FormatUint(version, 10) + stateFileSuffix
}

func parseStateFileName(name string) (uint64, bool) {
	rest, prefixed := strings.CutPrefix(name, stateFilePrefix)
	rest, suffixed := strings.CutSuffix(rest, stateFileSuffix)
	v, err := strconv.ParseUint(rest, 10, 64)
	return v, prefixed && suffixed && err == nil && v != 0
}

// Apply runs one mutation under the store's lock and returns the state
// it produced. It clones the current state, bumps the version, applies
// mut to the clone (so mut sees the successor's Version — catalog revs
// stamp from it), persists it, and swaps it in. A mutation that changes
// nothing is a no-op: no version bump, no disk write, and the returned
// state is the current one. A persist failure rejects the mutation —
// the returned error — and keeps the current state. mut must not call
// back into the store.
func (s *Store) Apply(mut func(*State)) (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return State{}, ErrClosed
	}
	return s.apply(mut)
}

// Rollback restores the published content (assets and groups) of a
// retained on-disk snapshot, applied as a regular mutation through
// Apply: node membership is preserved — live nodes would be
// stale the moment an old snapshot resurrected them — and the catalog
// version keeps growing, so consumers never see the version header move
// backwards. Rolling back to content identical to the current state is
// a no-op like any other Apply. An unretained version returns
// ErrNoSnapshot.
func (s *Store) Rollback(version uint64) (State, error) {
	if s.dir == "" {
		return State{}, fmt.Errorf("%w %d: store has no history directory", ErrNoSnapshot, version)
	}
	old, err := loadEntry(s.dir, version)
	if err != nil {
		return State{}, fmt.Errorf("%w %d", ErrNoSnapshot, version)
	}
	// old was decoded here and nothing else holds it, so its lists pass
	// to the successor without a copy.
	return s.Apply(func(st *State) { st.Assets, st.Groups = old.Assets, old.Groups })
}

// Current returns the current snapshot: the state plus its
// pre-marshaled catalog bytes.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// State returns the current state.
func (s *Store) State() State { return s.cur.Load().State }

// Version returns the current state version.
func (s *Store) Version() uint64 { return s.cur.Load().State.Version }

// CatalogJSON returns the pre-marshaled catalog listing. Callers serve
// it verbatim and must not mutate it.
func (s *Store) CatalogJSON() []byte { return s.cur.Load().CatalogJSON }

// Close waits for an Apply in progress; subsequent Applys return
// ErrClosed. It does not remove the history — a successor Open(dir)
// restores it.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// apply builds the successor state aside, persists it, and swaps it in.
// The caller holds s.mu.
func (s *Store) apply(mut func(*State)) (State, error) {
	cur := s.cur.Load()
	next := cur.State.Clone()
	next.Version++
	// The history timestamp is provenance for operators reading the
	// files, not an ordering signal; it is genuinely wall time.
	next.SavedAt = time.Now().UTC().Format(time.RFC3339) //lodlint:allow wall-clock
	mut(&next)
	next.Schema = StateSchema
	if next.sameContent(cur.State) {
		return cur.State, nil
	}
	if s.dir != "" {
		if err := s.persist(next); err != nil {
			return State{}, err
		}
	}
	s.cur.Store(newSnapshot(next))
	return next, nil
}

// persist writes the successor to the history atomically via tmp+rename
// — the rename is the commit — then prunes entries older than the keep
// window. Failing before the rename leaves the previous entry newest.
func (s *Store) persist(st State) error {
	if err := writeFileAtomic(filepath.Join(s.dir, stateFileName(st.Version)), EncodeState(st)); err != nil {
		return fmt.Errorf("catalog: persist state %d: %w", st.Version, err)
	}
	for _, v := range historyVersions(s.dir) {
		if st.Version-v >= uint64(s.keep) {
			_ = os.Remove(filepath.Join(s.dir, stateFileName(v)))
		}
	}
	return nil
}

func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
