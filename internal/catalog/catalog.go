// Package catalog is the durable control-plane state of the cluster:
// the registry's node table and the published-content catalog, held as
// an immutable versioned State that is snapshotted to an on-disk
// history and restored on start.
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
	"sort"

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
	if len(st.Nodes) != len(other.Nodes) || len(st.Assets) != len(other.Assets) || len(st.Groups) != len(other.Groups) {
		return false
	}
	for i, n := range st.Nodes {
		if n != other.Nodes[i] {
			return false
		}
	}
	for i, a := range st.Assets {
		if a != other.Assets[i] {
			return false
		}
	}
	for i, g := range st.Groups {
		o := other.Groups[i]
		if g.Name != o.Name || g.Rev != o.Rev || len(g.Variants) != len(o.Variants) {
			return false
		}
		for j, v := range g.Variants {
			if v != o.Variants[j] {
				return false
			}
		}
	}
	return true
}

// Catalog renders the published-content view of the state as the wire
// DTO. Slices are non-nil so the listing marshals as [] rather than
// null.
func (st State) Catalog() proto.Catalog {
	c := proto.Catalog{
		Version: st.Version,
		Assets:  st.Assets,
		Groups:  st.Groups,
	}
	if c.Assets == nil {
		c.Assets = []proto.CatalogAsset{}
	}
	if c.Groups == nil {
		c.Groups = []proto.CatalogGroup{}
	}
	return c
}

// UpsertNode inserts or updates a node record (sorted by ID), clearing
// any draining mark — registration is the one act that revives a
// drained node.
func (st *State) UpsertNode(rec NodeRecord) {
	i := sort.Search(len(st.Nodes), func(i int) bool { return st.Nodes[i].ID >= rec.ID })
	if i < len(st.Nodes) && st.Nodes[i].ID == rec.ID {
		st.Nodes[i] = rec
		return
	}
	st.Nodes = append(st.Nodes, NodeRecord{})
	copy(st.Nodes[i+1:], st.Nodes[i:])
	st.Nodes[i] = rec
}

// RemoveNode deletes a node record, reporting whether it existed.
func (st *State) RemoveNode(id string) bool {
	i := sort.Search(len(st.Nodes), func(i int) bool { return st.Nodes[i].ID >= id })
	if i >= len(st.Nodes) || st.Nodes[i].ID != id {
		return false
	}
	st.Nodes = append(st.Nodes[:i], st.Nodes[i+1:]...)
	return true
}

// SetNodeDraining marks or clears the durable draining flag of a node,
// reporting whether the node exists.
func (st *State) SetNodeDraining(id string, draining bool) bool {
	i := sort.Search(len(st.Nodes), func(i int) bool { return st.Nodes[i].ID >= id })
	if i >= len(st.Nodes) || st.Nodes[i].ID != id {
		return false
	}
	st.Nodes[i].Draining = draining
	return true
}

// PublishAsset inserts or replaces an asset entry (sorted by name),
// stamping it with the state's version as its revision — the successor
// state's version, since mutations run after the bump.
func (st *State) PublishAsset(name string) {
	rec := proto.CatalogAsset{Name: name, Rev: st.Version}
	i := sort.Search(len(st.Assets), func(i int) bool { return st.Assets[i].Name >= name })
	if i < len(st.Assets) && st.Assets[i].Name == name {
		st.Assets[i] = rec
		return
	}
	st.Assets = append(st.Assets, proto.CatalogAsset{})
	copy(st.Assets[i+1:], st.Assets[i:])
	st.Assets[i] = rec
}

// UnpublishAsset removes an asset entry, reporting whether it existed.
func (st *State) UnpublishAsset(name string) bool {
	i := sort.Search(len(st.Assets), func(i int) bool { return st.Assets[i].Name >= name })
	if i >= len(st.Assets) || st.Assets[i].Name != name {
		return false
	}
	st.Assets = append(st.Assets[:i], st.Assets[i+1:]...)
	return true
}

// PublishGroup inserts or replaces a rate-group entry (sorted by name)
// with the given variant list, stamped like PublishAsset.
func (st *State) PublishGroup(name string, variants []string) {
	rec := proto.CatalogGroup{
		Name:     name,
		Variants: append([]string(nil), variants...),
		Rev:      st.Version,
	}
	i := sort.Search(len(st.Groups), func(i int) bool { return st.Groups[i].Name >= name })
	if i < len(st.Groups) && st.Groups[i].Name == name {
		st.Groups[i] = rec
		return
	}
	st.Groups = append(st.Groups, proto.CatalogGroup{})
	copy(st.Groups[i+1:], st.Groups[i:])
	st.Groups[i] = rec
}

// UnpublishGroup removes a rate-group entry, reporting whether it
// existed.
func (st *State) UnpublishGroup(name string) bool {
	i := sort.Search(len(st.Groups), func(i int) bool { return st.Groups[i].Name >= name })
	if i >= len(st.Groups) || st.Groups[i].Name != name {
		return false
	}
	st.Groups = append(st.Groups[:i], st.Groups[i+1:]...)
	return true
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
	seenNodes := make(map[string]bool, len(st.Nodes))
	for _, n := range st.Nodes {
		if n.ID == "" || n.URL == "" {
			return State{}, errors.New("catalog: decode state: node record missing id or url")
		}
		if seenNodes[n.ID] {
			return State{}, fmt.Errorf("catalog: decode state: duplicate node %q", n.ID)
		}
		seenNodes[n.ID] = true
	}
	seenAssets := make(map[string]bool, len(st.Assets))
	for _, a := range st.Assets {
		if a.Name == "" {
			return State{}, errors.New("catalog: decode state: asset record missing name")
		}
		if seenAssets[a.Name] {
			return State{}, fmt.Errorf("catalog: decode state: duplicate asset %q", a.Name)
		}
		seenAssets[a.Name] = true
	}
	seenGroups := make(map[string]bool, len(st.Groups))
	for _, g := range st.Groups {
		if g.Name == "" {
			return State{}, errors.New("catalog: decode state: group record missing name")
		}
		if seenGroups[g.Name] {
			return State{}, fmt.Errorf("catalog: decode state: duplicate group %q", g.Name)
		}
		seenGroups[g.Name] = true
	}
	return st, nil
}
