package main

import (
	"slices"
	"testing"
)

func ids(es []experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.id
	}
	return out
}

func TestCatalogueIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range catalogue() {
		if seen[e.id] {
			t.Errorf("catalogue lists %s twice", e.id)
		}
		seen[e.id] = true
	}
}

// TestSelectExperiments: a -run list selects in catalogue order, and an
// ID the catalogue does not have is reported, not dropped — also when
// known IDs stand beside it.
func TestSelectExperiments(t *testing.T) {
	cat := catalogue()
	for _, tc := range []struct {
		name, list    string
		want, unknown []string
	}{
		{"known list", "E15,F8", []string{"F8", "E15"}, nil},
		{"unknown among known", "E15,E99", []string{"E15"}, []string{"E99"}},
		{"all unknown", "E99,nope", nil, []string{"E99", "nope"}},
		{"empty is all", "", ids(cat), nil},
		{"blank is all", "  ", ids(cat), nil},
		{"whitespace around commas", " E15 , E16 ", []string{"E15", "E16"}, nil},
		{"named twice", "E15,E15", []string{"E15"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			selected, unknown := selectExperiments(cat, tc.list)
			if got := ids(selected); !slices.Equal(got, tc.want) {
				t.Errorf("selected %v, want %v", got, tc.want)
			}
			if !slices.Equal(unknown, tc.unknown) {
				t.Errorf("unknown %v, want %v", unknown, tc.unknown)
			}
		})
	}
}
