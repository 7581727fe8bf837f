// Package entity defines the data model of Clean-Clean Entity Resolution:
// entity profiles made of textual name-value pairs, datasets of profiles,
// candidate pairs, and the groundtruth of matching pairs.
//
// The model follows the paper's Section III: an entity profile e_i is a set
// of textual name-value pairs describing a real-world object. Clean-Clean ER
// receives two individually duplicate-free but overlapping datasets E1 and E2
// and asks for the pairs (e1, e2) that refer to the same object.
package entity

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
)

// Attribute is a single textual name-value pair of an entity profile.
type Attribute struct {
	Name  string
	Value string
}

// Profile is an entity profile: an identifier plus its name-value pairs.
// The ID is unique within its dataset and doubles as the index of the
// profile in Dataset.Profiles.
type Profile struct {
	ID    int32
	Attrs []Attribute
}

// Value returns the value of the named attribute, or "" if absent.
// If the attribute appears multiple times the values are joined by a space.
func (p *Profile) Value(name string) string {
	var parts []string
	for _, a := range p.Attrs {
		if a.Name == name && a.Value != "" {
			parts = append(parts, a.Value)
		}
	}
	return strings.Join(parts, " ")
}

// AllText concatenates every attribute value of the profile, separated by
// single spaces, in attribute order. This is the schema-agnostic view used
// throughout the paper: the entity is treated as one long textual value.
func (p *Profile) AllText() string {
	var sb strings.Builder
	for _, a := range p.Attrs {
		if a.Value == "" {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(a.Value)
	}
	return sb.String()
}

// Dataset is an ordered collection of entity profiles, duplicate-free in
// Clean-Clean ER. Profiles[i].ID == int32(i) always holds for datasets
// constructed through New.
type Dataset struct {
	Name     string
	Profiles []Profile
}

// New creates a dataset and assigns sequential IDs to the given profiles.
func New(name string, profiles []Profile) *Dataset {
	for i := range profiles {
		profiles[i].ID = int32(i)
	}
	return &Dataset{Name: name, Profiles: profiles}
}

// Len returns the number of profiles in the dataset.
func (d *Dataset) Len() int { return len(d.Profiles) }

// AttributeNames returns the distinct attribute names appearing in the
// dataset, sorted lexicographically.
func (d *Dataset) AttributeNames() []string {
	seen := map[string]bool{}
	for i := range d.Profiles {
		for _, a := range d.Profiles[i].Attrs {
			seen[a.Name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Pair is a candidate pair of a Clean-Clean ER task: Left indexes a profile
// of E1 and Right a profile of E2.
type Pair struct {
	Left  int32
	Right int32
}

// String implements fmt.Stringer.
func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.Left, p.Right) }

// ComparePairs orders pairs by (Left, Right), for slices.SortFunc.
func ComparePairs(a, b Pair) int {
	if c := cmp.Compare(a.Left, b.Left); c != 0 {
		return c
	}
	return cmp.Compare(a.Right, b.Right)
}

// GroundTruth is the set of true matching pairs between E1 and E2.
type GroundTruth struct {
	pairs map[Pair]struct{}
}

// NewGroundTruth builds a groundtruth from a list of matching pairs.
// Duplicate entries are collapsed.
func NewGroundTruth(pairs []Pair) *GroundTruth {
	g := &GroundTruth{pairs: make(map[Pair]struct{}, len(pairs))}
	for _, p := range pairs {
		g.pairs[p] = struct{}{}
	}
	return g
}

// Size returns the number of duplicate pairs in the groundtruth.
func (g *GroundTruth) Size() int { return len(g.pairs) }

// Contains reports whether the pair is a true match.
func (g *GroundTruth) Contains(p Pair) bool {
	_, ok := g.pairs[p]
	return ok
}

// Pairs returns the matching pairs in an unspecified order.
func (g *GroundTruth) Pairs() []Pair {
	out := make([]Pair, 0, len(g.pairs))
	for p := range g.pairs {
		out = append(out, p)
	}
	return out
}

// Task bundles the inputs of one Clean-Clean ER filtering task.
type Task struct {
	Name  string
	E1    *Dataset
	E2    *Dataset
	Truth *GroundTruth
	// BestAttribute is the most informative attribute in terms of coverage
	// and distinctiveness, used by the schema-based settings (Table VI).
	BestAttribute string
}

// CartesianProduct returns |E1| * |E2| as a float64 (it can exceed int32).
func (t *Task) CartesianProduct() float64 {
	return float64(t.E1.Len()) * float64(t.E2.Len())
}
