package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/online"
)

// genTask generates a dataset analog at the given scale. The seed is
// folded into the analog's own generation seed, so every seed draws new
// entities of the same shape and size.
func genTask(name string, scale float64, seed int64) (*entity.Task, error) {
	for _, s := range datagen.Specs(scale) {
		if s.Name == name {
			s.Seed += uint64(seed) * 0x9E3779B97F4A7C15
			return datagen.Generate(s), nil
		}
	}
	return nil, fmt.Errorf("unknown dataset analog %s", name)
}

// attrMap is a profile in the JSON attribute form of the HTTP API.
func attrMap(p entity.Profile) map[string]string {
	m := make(map[string]string, len(p.Attrs))
	for _, a := range p.Attrs {
		if prev, ok := m[a.Name]; ok {
			m[a.Name] = prev + " " + a.Value
			continue
		}
		m[a.Name] = a.Value
	}
	return m
}

// wireAttrs is the attribute list the server derives from attrMap(p),
// which in-process calls must use to see the same input.
func wireAttrs(p entity.Profile) []entity.Attribute { return online.AttrsFromMap(attrMap(p)) }

// wireRows is every profile of a dataset in wire form.
func wireRows(d *entity.Dataset) [][]entity.Attribute {
	out := make([][]entity.Attribute, d.Len())
	for i, p := range d.Profiles {
		out[i] = wireAttrs(p)
	}
	return out
}

// truthByE2 maps each E2 profile with a true match to its E1 partner.
func truthByE2(t *entity.Task) map[int]int {
	m := make(map[int]int, t.Truth.Size())
	for _, p := range t.Truth.Pairs() {
		m[int(p.Right)] = int(p.Left)
	}
	return m
}

// sendOrder is a seeded shuffle of the profiles that have any text. The
// API rejects an entity or query without attributes, and the generator
// drops every attribute of a few profiles; those are never sent.
func sendOrder(d *entity.Dataset, seed int64) []int {
	var out []int
	for _, i := range rand.New(rand.NewSource(seed)).Perm(d.Len()) {
		if len(wireAttrs(d.Profiles[i])) > 0 {
			out = append(out, i)
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and slices are marshalled
	}
	return b
}

// candJSON is the wire form of one candidate in a /v1/query answer.
type candJSON struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
}

// candBytes renders in-process candidates as the server serializes them.
func candBytes(cs []online.Candidate) []byte {
	out := make([]candJSON, len(cs))
	for i, c := range cs {
		out[i] = candJSON{c.ID, c.Score}
	}
	return mustJSON(out)
}
