// Package catalog is the durable control-plane state of the cluster:
// the registry's node table and the published-content catalog, held as
// an immutable versioned State that is snapshotted to an on-disk
// history and restored on start.
//
// Each record list in a State — nodes by ID, assets and groups by name —
// is sorted by its key, and the keys strictly increase. The mutations
// keep that rule through one helper (find, upsert, remove), and
// DecodeState refuses a list that breaks it, so a restored state is one
// the mutations' binary search can work on.
//
// A Store owns the current *State behind an atomic pointer; mutations
// serialize on one mutex, and each clones the state aside, applies the
// mutation, persists the successor as state-<version>.json (tmp file
// plus rename, no fsync), and only then swaps the pointer — readers
// never see a partially applied or partially persisted state, and a
// persist failure rejects the mutation outright. The rename is the only
// commit: Open restores the newest entry that decodes and whose body
// carries the version its name does, walking back past a corrupt,
// truncated or misnamed newest file (FuzzStateRoundTrip and FuzzRestore
// guard that path).
// The catalog listing served over HTTP is pre-marshaled at swap time so
// the serving path hands out stored bytes with zero re-marshaling.
package catalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/proto"
)

// StateSchema identifies the persisted state document format. Decoding
// rejects any other value, so a future format change can bump it and
// old registries will treat new files as corrupt (and walk back) rather
// than misread them.
const StateSchema = "lod-state/1"

// NodeRecord is the durable slice of one registered node: identity plus
// the draining mark, which must survive a registry restart (a drained
// node's heartbeats cannot resurrect it — only an explicit
// re-registration can). Liveness (last-seen, death marks, load) is
// deliberately not persisted: it is re-learned from heartbeats within
// one TTL and would be stale the moment the snapshot was written.
type NodeRecord struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Draining bool   `json:"draining,omitempty"`
}

// State is one immutable version of the control-plane state. Values are
// only ever constructed by Store.Apply (or decoded from disk); everyone
// else reads.
type State struct {
	Schema  string `json:"schema"`
	Version uint64 `json:"version"`
	// SavedAt is a human-facing provenance timestamp (RFC 3339); nothing
	// orders or expires on it.
	SavedAt string               `json:"savedAt,omitempty"`
	Nodes   []NodeRecord         `json:"nodes"`
	Assets  []proto.CatalogAsset `json:"assets"`
	Groups  []proto.CatalogGroup `json:"groups"`
}

// Clone deep-copies the state so a mutation can build its successor
// aside without aliasing slices of the published version.
func (st State) Clone() State {
	out := st
	out.Nodes = append([]NodeRecord(nil), st.Nodes...)
	out.Assets = append([]proto.CatalogAsset(nil), st.Assets...)
	out.Groups = make([]proto.CatalogGroup, len(st.Groups))
	for i, g := range st.Groups {
		g.Variants = append([]string(nil), g.Variants...)
		out.Groups[i] = g
	}
	return out
}

// sameContent reports whether two states carry identical content,
// ignoring Version/SavedAt — the no-op detection that lets the Store
// skip a version bump and a disk write for mutations that change
// nothing (a re-register with unchanged URL, a periodic prune that
// pruned nobody).
func (st State) sameContent(other State) bool {
	return slices.Equal(st.Nodes, other.Nodes) && slices.Equal(st.Assets, other.Assets) &&
		slices.EqualFunc(st.Groups, other.Groups, func(a, b proto.CatalogGroup) bool {
			return a.Name == b.Name && a.Rev == b.Rev && slices.Equal(a.Variants, b.Variants)
		})
}

// Catalog renders the published-content view of the state as the wire
// DTO. Slices are non-nil so the listing marshals as [] rather than
// null.
func (st State) Catalog() proto.Catalog {
	c := proto.Catalog{Version: st.Version, Assets: st.Assets, Groups: st.Groups}
	if c.Assets == nil {
		c.Assets = []proto.CatalogAsset{}
	}
	if c.Groups == nil {
		c.Groups = []proto.CatalogGroup{}
	}
	return c
}

// The keys the record lists are sorted by (the package doc's rule).
func nodeID(n NodeRecord) string            { return n.ID }
func assetName(a proto.CatalogAsset) string { return a.Name }
func groupName(g proto.CatalogGroup) string { return g.Name }

// find returns the index of key in list, or where it would go, and
// whether it is there.
func find[T any](list []T, key string, keyOf func(T) string) (int, bool) {
	return slices.BinarySearchFunc(list, key, func(e T, k string) int { return strings.Compare(keyOf(e), k) })
}

// upsert replaces the record with rec's key, or inserts rec in order.
func upsert[T any](list []T, rec T, keyOf func(T) string) []T {
	i, ok := find(list, keyOf(rec), keyOf)
	if ok {
		list[i] = rec
		return list
	}
	return slices.Insert(list, i, rec)
}

// remove deletes the record with key, reporting whether it existed.
func remove[T any](list []T, key string, keyOf func(T) string) ([]T, bool) {
	i, ok := find(list, key, keyOf)
	if !ok {
		return list, false
	}
	return slices.Delete(list, i, i+1), true
}

// UpsertNode inserts or updates a node record, clearing any draining
// mark — registration is the one act that revives a drained node.
func (st *State) UpsertNode(rec NodeRecord) { st.Nodes = upsert(st.Nodes, rec, nodeID) }

// RemoveNode deletes a node record, reporting whether it existed.
func (st *State) RemoveNode(id string) (ok bool) {
	st.Nodes, ok = remove(st.Nodes, id, nodeID)
	return ok
}

// SetNodeDraining marks or clears the durable draining flag of a node,
// reporting whether the node exists.
func (st *State) SetNodeDraining(id string, draining bool) bool {
	i, ok := find(st.Nodes, id, nodeID)
	if ok {
		st.Nodes[i].Draining = draining
	}
	return ok
}

// PublishAsset inserts or replaces an asset entry, stamping it with the
// state's version as its revision — the successor state's version,
// since mutations run after the bump.
func (st *State) PublishAsset(name string) {
	st.Assets = upsert(st.Assets, proto.CatalogAsset{Name: name, Rev: st.Version}, assetName)
}

// UnpublishAsset removes an asset entry, reporting whether it existed.
func (st *State) UnpublishAsset(name string) (ok bool) {
	st.Assets, ok = remove(st.Assets, name, assetName)
	return ok
}

// PublishGroup inserts or replaces a rate-group entry with the given
// variant list, stamped like PublishAsset.
func (st *State) PublishGroup(name string, variants []string) {
	rec := proto.CatalogGroup{Name: name, Variants: append([]string(nil), variants...), Rev: st.Version}
	st.Groups = upsert(st.Groups, rec, groupName)
}

// UnpublishGroup removes a rate-group entry, reporting whether it
// existed.
func (st *State) UnpublishGroup(name string) (ok bool) {
	st.Groups, ok = remove(st.Groups, name, groupName)
	return ok
}

// EncodeState serializes a state for the on-disk history.
func EncodeState(st State) []byte {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		// State holds only plain data types; Marshal cannot fail on it.
		panic("catalog: encode state: " + err.Error())
	}
	return append(data, '\n')
}

// DecodeState parses a persisted state document strictly: unknown
// fields, a wrong schema, trailing data, and malformed records are all
// rejected, so a truncated or corrupt history file fails here and Open
// walks back to the previous entry instead of restoring garbage.
func DecodeState(data []byte) (State, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var st State
	if err := dec.Decode(&st); err != nil {
		return State{}, fmt.Errorf("catalog: decode state: %w", err)
	}
	if dec.More() {
		return State{}, errors.New("catalog: decode state: trailing data after document")
	}
	if st.Schema != StateSchema {
		return State{}, fmt.Errorf("catalog: decode state: schema %q, want %q", st.Schema, StateSchema)
	}
	if st.Version == 0 {
		return State{}, errors.New("catalog: decode state: version 0")
	}
	if slices.ContainsFunc(st.Nodes, func(n NodeRecord) bool { return n.URL == "" }) {
		return State{}, errors.New("catalog: decode state: node record missing url")
	}
	err := errors.Join(checkKeys("node", st.Nodes, nodeID), checkKeys("asset", st.Assets, assetName),
		checkKeys("group", st.Groups, groupName))
	if err != nil {
		return State{}, err
	}
	return st, nil
}

// checkKeys enforces the order rule on a decoded list: a missing key, a
// duplicate and an unsorted pair all fail k <= prev.
func checkKeys[T any](kind string, list []T, keyOf func(T) string) error {
	prev := ""
	for i, e := range list {
		k := keyOf(e)
		if k <= prev {
			return fmt.Errorf("catalog: decode state: %s %d key %q does not follow %q", kind, i, k, prev)
		}
		prev = k
	}
	return nil
}
