package catalog

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/proto"
)

// FuzzStateRoundTrip guards the restore path's strictness: any input
// DecodeState accepts must re-encode and decode to the identical state
// (the history is a fixed point of the codec) and keep the order rule —
// each list's keys strictly increase, so unpublishing a listed asset
// unlists it — and obviously damaged documents — truncations, trailing
// garbage, wrong schema, lists out of order — must be rejected so Open
// walks back to the previous history entry instead of restoring a
// half-read state.
func FuzzStateRoundTrip(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"schema":"lod-state/1","version":1,"nodes":[],"assets":[],"groups":[]}`))
	f.Add(EncodeState(State{Schema: StateSchema, Version: 3,
		Nodes:  []NodeRecord{{ID: "edge-1", URL: "http://e1", Draining: true}},
		Assets: []proto.CatalogAsset{{Name: "lec-1", Rev: 2}},
		Groups: []proto.CatalogGroup{{Name: "grp-1", Variants: []string{"a", "b"}, Rev: 3}}}))
	seed := EncodeState(State{Schema: StateSchema, Version: 7, SavedAt: "2026-01-01T00:00:00Z"})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])                             // truncated
	f.Add(append(append([]byte{}, seed...), '{'))         // trailing data
	f.Add([]byte(`{"schema":"lod-state/0","version":1}`)) // wrong schema
	f.Add([]byte(`{"schema":"lod-state/1","version":1,"bogus":true}`))
	f.Add([]byte(`{"schema":"lod-state/1","version":2,"assets":[{"name":"b","rev":1},{"name":"a","rev":2}]}`)) // out of order

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			return
		}
		if st.Schema != StateSchema || st.Version == 0 {
			t.Fatalf("decode accepted invalid schema/version: %+v", st)
		}
		re := EncodeState(st)
		st2, err := DecodeState(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded state failed: %v\ninput: %q\nre-encoded: %q", err, data, re)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("round trip not a fixed point:\n got %+v\nwant %+v", st2, st)
		}
		for _, a := range st.Assets {
			after := st.Clone()
			if !after.UnpublishAsset(a.Name) {
				t.Fatalf("unpublish of listed %q reported false", a.Name)
			}
			if slices.ContainsFunc(after.Assets, func(b proto.CatalogAsset) bool { return b.Name == a.Name }) {
				t.Fatalf("%q still listed after unpublish: %+v", a.Name, after.Assets)
			}
		}
		assertIncreasing(t, st.Nodes, nodeID)
		assertIncreasing(t, st.Assets, assetName)
		assertIncreasing(t, st.Groups, groupName)
	})
}

// assertIncreasing fails unless the keys of list strictly increase.
func assertIncreasing[T any](t *testing.T, list []T, keyOf func(T) string) {
	t.Helper()
	for i := 1; i < len(list); i++ {
		if keyOf(list[i-1]) >= keyOf(list[i]) {
			t.Fatalf("accepted keys out of order at %d: %q then %q", i, keyOf(list[i-1]), keyOf(list[i]))
		}
	}
}

// FuzzRestore makes arbitrary bytes the newest history entry on top of
// a valid older one: Open restores exactly one of the two — the fuzzed
// entry when it is a valid version-2 state, else the older — and never
// a third state.
func FuzzRestore(f *testing.F) {
	older := State{Schema: StateSchema, Version: 1, SavedAt: "2026-01-01T00:00:00Z",
		Assets: []proto.CatalogAsset{{Name: "lec-1", Rev: 1}}}
	newer := EncodeState(State{Schema: StateSchema, Version: 2,
		Assets: []proto.CatalogAsset{{Name: "lec-2", Rev: 2}}})
	f.Add(newer)
	f.Add(newer[:len(newer)/2])
	f.Add(EncodeState(State{Schema: StateSchema, Version: 5}))
	f.Add(EncodeState(older))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, stateFileName(1)), EncodeState(older), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, stateFileName(2)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got := s.State()
		want := older
		if st, err := DecodeState(data); err == nil && st.Version == 2 {
			want = st
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restored %+v, want %+v", got, want)
		}
	})
}
