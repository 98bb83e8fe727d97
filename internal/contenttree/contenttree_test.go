package contenttree

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

const unit = 20 * time.Second // the paper's examples use 20-unit segments

// buildPaperTree reproduces the §2.3 build: S0(l0) S1(l1) S2(l2) S3(l1)
// S4(l2), each 20 units, yielding the tree S0(S1(S2), S3(S4)).
func buildPaperTree(t *testing.T) *Tree {
	t.Helper()
	tree := New()
	steps := []struct {
		id    string
		level int
	}{
		{"S0", 0}, {"S1", 1}, {"S2", 2}, {"S3", 1}, {"S4", 2},
	}
	for _, s := range steps {
		if err := tree.Attach(s.id, unit, s.level); err != nil {
			t.Fatalf("Attach(%s, level %d): %v", s.id, s.level, err)
		}
	}
	return tree
}

func levelSeconds(tr *Tree) []float64 {
	lv := tr.LevelNodes()
	out := make([]float64, len(lv))
	for i, d := range lv {
		out[i] = d.Seconds()
	}
	return out
}

// TestSection23BuildSteps reproduces the paper's §2.3 step table exactly:
// after each add, highestLevel and LevelNodes[] must match the published
// values (E2 in DESIGN.md).
func TestSection23BuildSteps(t *testing.T) {
	tree := New()

	// Step 1: add S0.
	if err := tree.Attach("S0", unit, 0); err != nil {
		t.Fatalf("add S0: %v", err)
	}
	if got := tree.HighestLevel(); got != 0 {
		t.Fatalf("after S0 highestLevel = %d, want 0", got)
	}
	if got := tree.PresentationTime(0); got != 20*time.Second {
		t.Fatalf("after S0 LevelNodes[0] = %v, want 20s", got)
	}

	// Step 2: add S1.
	if err := tree.Attach("S1", unit, 1); err != nil {
		t.Fatalf("add S1: %v", err)
	}
	if got := tree.HighestLevel(); got != 1 {
		t.Fatalf("after S1 highestLevel = %d, want 1", got)
	}
	if got := tree.PresentationTime(1); got != 40*time.Second {
		t.Fatalf("after S1 LevelNodes[1] = %v, want 40s", got)
	}

	// Step 3: add S2.
	if err := tree.Attach("S2", unit, 2); err != nil {
		t.Fatalf("add S2: %v", err)
	}
	if got := tree.HighestLevel(); got != 2 {
		t.Fatalf("after S2 highestLevel = %d, want 2", got)
	}
	if got := tree.PresentationTime(2); got != 60*time.Second {
		t.Fatalf("after S2 LevelNodes[2] = %v, want 60s", got)
	}

	// Step 4: add S3 and S4 (the paper's final step reports the combined
	// state: highestLevel = 2, LevelNodes[1] = 60, LevelNodes[2] = 100).
	if err := tree.Attach("S3", unit, 1); err != nil {
		t.Fatalf("add S3: %v", err)
	}
	if err := tree.Attach("S4", unit, 2); err != nil {
		t.Fatalf("add S4: %v", err)
	}
	if got := tree.HighestLevel(); got != 2 {
		t.Fatalf("final highestLevel = %d, want 2", got)
	}
	if got := tree.PresentationTime(1); got != 60*time.Second {
		t.Fatalf("final LevelNodes[1] = %v, want 60s", got)
	}
	if got := tree.PresentationTime(2); got != 100*time.Second {
		t.Fatalf("final LevelNodes[2] = %v, want 100s", got)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestSection23LevelNodesTable checks the whole LevelNodes array after
// each step of the §2.3 build, row by row as E2 tabulates it: a new
// level starts at its parent's time plus the segment, and the paper's
// final row is {20, 60, 100}.
func TestSection23LevelNodesTable(t *testing.T) {
	tree := New()
	steps := []struct {
		id    string
		level int
		want  []float64
	}{
		{"S0", 0, []float64{20}},
		{"S1", 1, []float64{20, 40}},
		{"S2", 2, []float64{20, 40, 60}},
		{"S3", 1, []float64{20, 60, 80}},
		{"S4", 2, []float64{20, 60, 100}},
	}
	for _, s := range steps {
		if err := tree.Attach(s.id, unit, s.level); err != nil {
			t.Fatalf("add %s: %v", s.id, err)
		}
		if got := levelSeconds(tree); !reflect.DeepEqual(got, s.want) {
			t.Fatalf("after %s LevelNodes = %v, want %v", s.id, got, s.want)
		}
	}
}

// TestFigure1Tree checks the structural shape after the §2.3 build (E1):
// S0 at the root with S1 and S3 at level 1 refining it, and S2, S4 at
// level 2 refining S1 and S3 respectively.
func TestFigure1Tree(t *testing.T) {
	tree := buildPaperTree(t)

	root := tree.Root()
	if root == nil || root.ID != "S0" {
		t.Fatalf("root = %v, want S0", root)
	}
	if got := childIDs(root); !reflect.DeepEqual(got, []string{"S1", "S3"}) {
		t.Fatalf("root children = %v, want [S1 S3]", got)
	}
	if got := childIDs(tree.Find("S1")); !reflect.DeepEqual(got, []string{"S2"}) {
		t.Fatalf("S1 children = %v, want [S2]", got)
	}
	if got := childIDs(tree.Find("S3")); !reflect.DeepEqual(got, []string{"S4"}) {
		t.Fatalf("S3 children = %v, want [S4]", got)
	}
	for id, want := range map[string]int{"S0": 0, "S1": 1, "S2": 2, "S3": 1, "S4": 2} {
		if got := tree.Find(id).Level(); got != want {
			t.Errorf("%s.Level() = %d, want %d", id, got, want)
		}
	}
}

func childIDs(n *Node) []string {
	var out []string
	for _, c := range n.Children {
		out = append(out, c.ID)
	}
	return out
}

// TestFigure3Insert reproduces the Fig 3 insert (E3): inserting S5 (level 1,
// 20 units) over S3 leaves highestLevel = 2 and LevelNodes = {20, 60, 120}.
func TestFigure3Insert(t *testing.T) {
	tree := buildPaperTree(t)
	if err := tree.Insert("S5", unit, "S3"); err != nil {
		t.Fatalf("Insert(S5 over S3): %v", err)
	}
	if got := tree.HighestLevel(); got != 2 {
		t.Fatalf("highestLevel = %d, want 2", got)
	}
	want := []float64{20, 60, 120}
	if got := levelSeconds(tree); !reflect.DeepEqual(got, want) {
		t.Fatalf("LevelNodes = %v, want %v", got, want)
	}
	// Structure: S5 took S3's slot; S3 and S3's old child S4 are S5's
	// children, in sequence order.
	s5 := tree.Find("S5")
	if got := s5.Level(); got != 1 {
		t.Fatalf("S5.Level() = %d, want 1", got)
	}
	if got := childIDs(s5); !reflect.DeepEqual(got, []string{"S3", "S4"}) {
		t.Fatalf("S5 children = %v, want [S3 S4]", got)
	}
	if got := childIDs(tree.Root()); !reflect.DeepEqual(got, []string{"S1", "S5"}) {
		t.Fatalf("root children = %v, want [S1 S5]", got)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestFigure3InsertRendering draws the tree before and after the Fig 3
// insert, as E3 prints it: S5 takes S3's place under the root, and S3
// with its old child S4 hang under S5.
func TestFigure3InsertRendering(t *testing.T) {
	tree := buildPaperTree(t)
	before := "S0 (20s)\n  S1 (20s)\n    S2 (20s)\n  S3 (20s)\n    S4 (20s)\n"
	if got := tree.String(); got != before {
		t.Fatalf("before insert:\n%s\nwant\n%s", got, before)
	}
	if err := tree.Insert("S5", unit, "S3"); err != nil {
		t.Fatalf("Insert(S5 over S3): %v", err)
	}
	after := "S0 (20s)\n  S1 (20s)\n    S2 (20s)\n  S5 (20s)\n    S3 (20s)\n    S4 (20s)\n"
	if got := tree.String(); got != after {
		t.Fatalf("after insert:\n%s\nwant\n%s", got, after)
	}
}

// TestFigure4Delete reproduces the Fig 4 delete (E4): deleting S5 (level 1)
// hands its children to its sibling S1.
func TestFigure4Delete(t *testing.T) {
	tree := buildPaperTree(t)
	if err := tree.Insert("S5", unit, "S3"); err != nil {
		t.Fatalf("setup insert: %v", err)
	}
	if err := tree.Delete("S5"); err != nil {
		t.Fatalf("Delete(S5): %v", err)
	}
	if tree.Find("S5") != nil {
		t.Fatal("S5 still present after delete")
	}
	// S5's children (S3, S4) are adopted by the left sibling S1, appended
	// after S1's own child S2.
	if got := childIDs(tree.Find("S1")); !reflect.DeepEqual(got, []string{"S2", "S3", "S4"}) {
		t.Fatalf("S1 children = %v, want [S2 S3 S4]", got)
	}
	if got := childIDs(tree.Root()); !reflect.DeepEqual(got, []string{"S1"}) {
		t.Fatalf("root children = %v, want [S1]", got)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDeleteAdoptionByRightSibling(t *testing.T) {
	tree := New()
	for _, s := range []struct {
		id    string
		level int
	}{{"R", 0}, {"A", 1}, {"B", 1}} {
		if err := tree.Attach(s.id, unit, s.level); err != nil {
			t.Fatalf("Attach(%s): %v", s.id, err)
		}
	}
	// Give A a child, then delete A: B (the right sibling) must adopt it
	// and the child must come before B's own children in sequence.
	if err := tree.Attach("B1", unit, 2); err != nil { // child of rightmost level-1 = B
		t.Fatalf("Attach(B1): %v", err)
	}
	a := tree.Find("A")
	child := &Node{ID: "A1", Duration: unit}
	child.parent = a
	a.Children = append(a.Children, child)
	tree.index["A1"] = child

	if err := tree.Delete("A"); err != nil {
		t.Fatalf("Delete(A): %v", err)
	}
	if got := childIDs(tree.Find("B")); !reflect.DeepEqual(got, []string{"A1", "B1"}) {
		t.Fatalf("B children = %v, want [A1 B1]", got)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDeleteLeafNoChildren(t *testing.T) {
	tree := buildPaperTree(t)
	if err := tree.Delete("S2"); err != nil {
		t.Fatalf("Delete(S2): %v", err)
	}
	if got := childIDs(tree.Find("S1")); got != nil {
		t.Fatalf("S1 children = %v, want none", got)
	}
	if tree.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", tree.Len())
	}
}

func TestDeleteOnlyChildWithChildrenFails(t *testing.T) {
	tree := New()
	for _, s := range []struct {
		id    string
		level int
	}{{"R", 0}, {"A", 1}, {"A1", 2}} {
		if err := tree.Attach(s.id, unit, s.level); err != nil {
			t.Fatalf("Attach(%s): %v", s.id, err)
		}
	}
	err := tree.Delete("A")
	if !errors.Is(err, ErrNoAdopter) {
		t.Fatalf("Delete(A) = %v, want ErrNoAdopter", err)
	}
}

func TestDeleteRootRules(t *testing.T) {
	tree := buildPaperTree(t)
	if err := tree.Delete("S0"); !errors.Is(err, ErrDeleteRoot) {
		t.Fatalf("Delete(root with children) = %v, want ErrDeleteRoot", err)
	}
	solo := New()
	if err := solo.Attach("only", unit, 0); err != nil {
		t.Fatal(err)
	}
	if err := solo.Delete("only"); err != nil {
		t.Fatalf("Delete(sole root): %v", err)
	}
	if solo.Root() != nil || solo.Len() != 0 {
		t.Fatal("tree not empty after deleting sole root")
	}
}

func TestDetachRemovesSubtree(t *testing.T) {
	tree := buildPaperTree(t)
	if err := tree.Detach("S1"); err != nil {
		t.Fatalf("Detach(S1): %v", err)
	}
	if tree.Find("S1") != nil || tree.Find("S2") != nil {
		t.Fatal("detached subtree still indexed")
	}
	if got := childIDs(tree.Root()); !reflect.DeepEqual(got, []string{"S3"}) {
		t.Fatalf("root children = %v, want [S3]", got)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDetachRootEmptiesTree(t *testing.T) {
	tree := buildPaperTree(t)
	if err := tree.Detach("S0"); err != nil {
		t.Fatalf("Detach(S0): %v", err)
	}
	if tree.Root() != nil || tree.Len() != 0 {
		t.Fatal("tree not empty after detaching root")
	}
}

func TestAttachErrors(t *testing.T) {
	tree := New()
	if err := tree.Attach("", unit, 0); err == nil {
		t.Error("empty id accepted")
	}
	if err := tree.Attach("x", -unit, 0); err == nil {
		t.Error("negative duration accepted")
	}
	if err := tree.Attach("x", unit, -1); err == nil {
		t.Error("negative level accepted")
	}
	if err := tree.Attach("orphan", unit, 1); !errors.Is(err, ErrNoParent) {
		t.Errorf("Attach at level 1 of empty tree = %v, want ErrNoParent", err)
	}
	if err := tree.Attach("root", unit, 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.Attach("root2", unit, 0); !errors.Is(err, ErrHasRoot) {
		t.Errorf("second root = %v, want ErrHasRoot", err)
	}
	if err := tree.Attach("root", unit, 1); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id = %v, want ErrDuplicateID", err)
	}
	if err := tree.Attach("deep", unit, 2); !errors.Is(err, ErrNoParent) {
		t.Errorf("skip level = %v, want ErrNoParent", err)
	}
}

func TestInsertErrors(t *testing.T) {
	tree := buildPaperTree(t)
	if err := tree.Insert("S1", unit, "S3"); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate insert = %v, want ErrDuplicateID", err)
	}
	if err := tree.Insert("N", unit, "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("insert over missing = %v, want ErrNotFound", err)
	}
	if err := tree.Insert("N", unit, "S0"); !errors.Is(err, ErrDeleteRoot) {
		t.Errorf("insert over root = %v, want ErrDeleteRoot", err)
	}
	if err := tree.Insert("N", -unit, "S3"); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestExtractLevelSequences(t *testing.T) {
	tree := buildPaperTree(t)
	tests := []struct {
		level int
		want  []string
	}{
		{0, []string{"S0"}},
		{1, []string{"S0", "S1", "S3"}},
		{2, []string{"S0", "S1", "S2", "S3", "S4"}},
		{9, []string{"S0", "S1", "S2", "S3", "S4"}}, // beyond highest: full
	}
	for _, tt := range tests {
		if got := tree.ExtractLevelIDs(tt.level); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("ExtractLevelIDs(%d) = %v, want %v", tt.level, got, tt.want)
		}
	}
}

func TestLevelNodesMatchesPresentationTime(t *testing.T) {
	tree := buildPaperTree(t)
	lv := tree.LevelNodes()
	for q := range lv {
		if got := tree.PresentationTime(q); got != lv[q] {
			t.Errorf("PresentationTime(%d) = %v, LevelNodes[%d] = %v", q, got, q, lv[q])
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tree := buildPaperTree(t)
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	restored := New()
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored tree invalid: %v", err)
	}
	if got, want := restored.ExtractLevelIDs(9), tree.ExtractLevelIDs(9); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored sequence %v, want %v", got, want)
	}
	if got, want := levelSeconds(restored), levelSeconds(tree); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored LevelNodes %v, want %v", got, want)
	}
}

func TestJSONEmptyTree(t *testing.T) {
	empty := New()
	data, err := json.Marshal(empty)
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	if string(data) != "null" {
		t.Fatalf("empty tree marshals to %s, want null", data)
	}
	restored := New()
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatalf("unmarshal empty: %v", err)
	}
	if restored.Root() != nil {
		t.Fatal("restored empty tree has a root")
	}
}

func TestJSONRejectsDuplicates(t *testing.T) {
	bad := []byte(`{"id":"a","durationSec":1,"children":[{"id":"a","durationSec":1}]}`)
	restored := New()
	if err := json.Unmarshal(bad, restored); err == nil {
		t.Fatal("duplicate IDs accepted in decode")
	}
}

func TestStringRendering(t *testing.T) {
	if got := New().String(); got != "(empty)" {
		t.Fatalf("empty String() = %q", got)
	}
	tree := buildPaperTree(t)
	want := "S0 (20s)\n  S1 (20s)\n    S2 (20s)\n  S3 (20s)\n    S4 (20s)\n"
	if got := tree.String(); got != want {
		t.Fatalf("String() =\n%s\nwant\n%s", got, want)
	}
}

func TestZeroValueTreeUsable(t *testing.T) {
	var tree Tree
	if err := tree.Attach("r", unit, 0); err != nil {
		t.Fatalf("zero-value Attach: %v", err)
	}
	if tree.Find("r") == nil {
		t.Fatal("zero-value Find failed")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("zero-value Validate: %v", err)
	}
}
