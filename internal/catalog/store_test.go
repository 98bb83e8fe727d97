package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/proto"
)

func mustApply(t *testing.T, s *Store, mut func(*State)) State {
	t.Helper()
	st, err := s.Apply(mut)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return st
}

func TestStoreRestoresAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, func(st *State) {
		st.UpsertNode(NodeRecord{ID: "edge-b", URL: "http://b"})
		st.UpsertNode(NodeRecord{ID: "edge-a", URL: "http://a"})
	})
	mustApply(t, s, func(st *State) { st.PublishAsset("lec-1") })
	mustApply(t, s, func(st *State) { st.PublishGroup("grp-1", []string{"grp-1-lean", "grp-1-rich"}) })
	want := s.State()
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.State()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state = %+v, want %+v", got, want)
	}
	if got.Version != 3 {
		t.Fatalf("restored version = %d, want 3", got.Version)
	}
	if len(got.Nodes) != 2 || got.Nodes[0].ID != "edge-a" {
		t.Fatalf("nodes not sorted/restored: %+v", got.Nodes)
	}
	if !bytes.Equal(s2.CatalogJSON(), s.CatalogJSON()) {
		t.Fatalf("catalog bytes differ after restore")
	}
}

func TestStoreWalksBackPastCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, func(st *State) { st.PublishAsset("lec-1") })
	mustApply(t, s, func(st *State) { st.PublishAsset("lec-2") })
	s.Close()

	// Truncate the newest entry mid-document, as a crash during write
	// would (tmp+rename normally prevents this; simulate disk damage).
	newest := filepath.Join(dir, stateFileName(2))
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.State()
	if st.Version != 1 {
		t.Fatalf("restored version = %d, want walkback to 1", st.Version)
	}
	if len(st.Assets) != 1 || st.Assets[0].Name != "lec-1" {
		t.Fatalf("walkback state assets = %+v, want [lec-1]", st.Assets)
	}
}

func TestStoreStartsFreshWhenWholeHistoryCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFileName(1)), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v := s.Version(); v != 0 {
		t.Fatalf("version = %d, want fresh 0", v)
	}
}

// A `current` pointer file left by an older store names an entry
// behind the newest; the names of the entries are the only record of
// what committed, so it is ignored.
func TestStoreIgnoresStalePointer(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lec-1", "lec-2", "lec-3"} {
		mustApply(t, s, func(st *State) { st.PublishAsset(name) })
	}
	want := s.State()
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "current"), []byte(stateFileName(1)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state = %+v, want newest %+v", got, want)
	}
}

// An entry whose body carries another version than its name was never
// committed under that name: restore skips it.
func TestStoreSkipsMisnamedEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, func(st *State) { st.PublishAsset("lec-1") })
	want := mustApply(t, s, func(st *State) { st.PublishAsset("lec-2") })
	s.Close()
	misnamed := EncodeState(State{Schema: StateSchema, Version: 3,
		Assets: []proto.CatalogAsset{{Name: "lec-9", Rev: 3}}})
	if err := os.WriteFile(filepath.Join(dir, stateFileName(9)), misnamed, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state = %+v, want %+v", got, want)
	}
	if _, err := s2.Rollback(9); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("rollback to misnamed entry err = %v, want ErrNoSnapshot", err)
	}
}

// An entry whose assets are out of order breaks the rule the mutations'
// binary search relies on (republishing "a" over [b a] would list it
// twice): restore walks back past it and rollback refuses it.
func TestStoreRefusesUnsortedEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := mustApply(t, s, func(st *State) { st.PublishAsset("a") })
	s.Close()
	unsorted := EncodeState(State{Schema: StateSchema, Version: 2,
		Assets: []proto.CatalogAsset{{Name: "b", Rev: 2}, {Name: "a", Rev: 2}}})
	if err := os.WriteFile(filepath.Join(dir, stateFileName(2)), unsorted, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state = %+v, want older %+v", got, want)
	}
	if _, err := s2.Rollback(2); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("rollback to unsorted entry err = %v, want ErrNoSnapshot", err)
	}
}

// Concurrent writers each commit exactly once: the versions count the
// publishes, none is lost, and pruning keeps the history bounded.
func TestStoreConcurrentApply(t *testing.T) {
	const writers, each = 8, 50
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := fmt.Sprintf("lec-%d-%d", w, i)
				if _, err := s.Apply(func(st *State) { st.PublishAsset(name) }); err != nil {
					t.Errorf("Apply %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.State()
	if st.Version != writers*each || len(st.Assets) != writers*each {
		t.Fatalf("version/assets = %d/%d, want %d/%d", st.Version, len(st.Assets), writers*each, writers*each)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > s.keep {
		t.Fatalf("%d files in history dir, want at most %d", len(entries), s.keep)
	}
	if v := historyVersions(dir); len(v) == 0 || v[0] != writers*each {
		t.Fatalf("history versions = %v, want newest %d", v, writers*each)
	}
}

func TestStoreNoOpMutationSkipsVersionBump(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustApply(t, s, func(st *State) { st.UpsertNode(NodeRecord{ID: "e", URL: "http://e"}) })
	st := mustApply(t, s, func(st *State) { st.UpsertNode(NodeRecord{ID: "e", URL: "http://e"}) })
	if st.Version != 1 {
		t.Fatalf("version after no-op re-register = %d, want 1", st.Version)
	}
	if _, err := os.Stat(filepath.Join(dir, stateFileName(2))); !os.IsNotExist(err) {
		t.Fatalf("no-op mutation persisted a new history entry")
	}
	// Removing a node that isn't there is a no-op too.
	st = mustApply(t, s, func(st *State) { st.RemoveNode("ghost") })
	if st.Version != 1 {
		t.Fatalf("version after no-op remove = %d, want 1", st.Version)
	}
}

func TestStoreDrainingSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, func(st *State) { st.UpsertNode(NodeRecord{ID: "e", URL: "http://e"}) })
	mustApply(t, s, func(st *State) { st.SetNodeDraining("e", true) })
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.State()
	if len(st.Nodes) != 1 || !st.Nodes[0].Draining {
		t.Fatalf("restored node = %+v, want draining", st.Nodes)
	}
	// Re-registration clears the durable mark.
	mustApply(t, s2, func(st *State) { st.UpsertNode(NodeRecord{ID: "e", URL: "http://e"}) })
	if st := s2.State(); st.Nodes[0].Draining {
		t.Fatalf("re-register did not clear draining: %+v", st.Nodes)
	}
}

func TestStorePrunesHistory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.keep = 3
	for i := 0; i < 6; i++ {
		mustApply(t, s, func(st *State) { st.PublishAsset("lec-" + string(rune('a'+i))) })
	}
	got := historyVersions(dir)
	want := []uint64{6, 5, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("history versions = %v, want %v", got, want)
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := mustApply(t, s, func(st *State) { st.PublishAsset("lec-1") })
	if st.Version != 1 || s.Version() != 1 {
		t.Fatalf("memory store version = %d/%d, want 1", st.Version, s.Version())
	}
}

func TestStoreApplyAfterClose(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Apply(func(*State) {}); err != ErrClosed {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
}

func TestPublishRevTracksVersion(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustApply(t, s, func(st *State) { st.PublishAsset("lec-1") })
	st := mustApply(t, s, func(st *State) { st.PublishAsset("lec-1") }) // republish
	if st.Version != 2 || st.Assets[0].Rev != 2 {
		t.Fatalf("republish version/rev = %d/%d, want 2/2", st.Version, st.Assets[0].Rev)
	}
	if !st.UnpublishAsset("lec-1") {
		t.Fatalf("unpublish existing asset reported false")
	}
	if st.UnpublishAsset("lec-1") {
		t.Fatalf("unpublish absent asset reported true")
	}
}

func TestStoreRollbackRestoresContent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustApply(t, s, func(st *State) { st.UpsertNode(NodeRecord{ID: "edge-a", URL: "http://a"}) })
	v2 := mustApply(t, s, func(st *State) {
		st.PublishAsset("lec-1")
		st.PublishGroup("grp-1", []string{"grp-1-lean", "grp-1-rich"})
	})
	mustApply(t, s, func(st *State) { st.UnpublishAsset("lec-1") })
	mustApply(t, s, func(st *State) { st.UnpublishGroup("grp-1") })
	mustApply(t, s, func(st *State) { st.UpsertNode(NodeRecord{ID: "edge-b", URL: "http://b"}) })

	st, err := s.Rollback(v2.Version)
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	// Content restored from v2 under a fresh, higher version; the node
	// added after v2 is preserved.
	if st.Version != 6 {
		t.Fatalf("post-rollback version = %d, want 6", st.Version)
	}
	if !reflect.DeepEqual(st.Assets, v2.Assets) {
		t.Fatalf("assets = %+v, want %+v", st.Assets, v2.Assets)
	}
	if !reflect.DeepEqual(st.Groups, v2.Groups) {
		t.Fatalf("groups = %+v, want %+v", st.Groups, v2.Groups)
	}
	if len(st.Nodes) != 2 {
		t.Fatalf("nodes = %+v, want both preserved", st.Nodes)
	}

	// Rolling back to the state we are already at is a no-op Apply.
	again, err := s.Rollback(st.Version)
	if err != nil {
		t.Fatalf("no-op Rollback: %v", err)
	}
	if again.Version != st.Version {
		t.Fatalf("no-op rollback bumped version to %d", again.Version)
	}
}

func TestStoreRollbackUnknownVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustApply(t, s, func(st *State) { st.PublishAsset("lec-1") })
	if _, err := s.Rollback(99); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("unknown version rollback err = %v, want ErrNoSnapshot", err)
	}

	mem, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := mem.Rollback(1); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("memory-only rollback err = %v, want ErrNoSnapshot", err)
	}
}
