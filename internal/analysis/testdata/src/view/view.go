// Package view is a minimal replica of hidinglcp/internal/view for
// analyzer fixtures: the analyzers match on the package name "view" and
// the View type shape, so fixtures stay self-contained.
package view

// View mirrors the fields of the real radius-r view.
type View struct {
	Radius int
	Adj    [][]int
	Dist   []int
	Ports  *PortRows
	IDs    []int
	Labels []string
	NBound int
}

// PortRows mirrors the real per-node port rows: Rows[i][p-1] is the local
// node behind port p at i, or -1.
type PortRows struct {
	Rows [][]int
}

// N returns the number of nodes in the view.
func (v *View) N() int { return len(v.Adj) }

// Degree returns the local degree of node i.
func (v *View) Degree(i int) int { return len(v.Adj[i]) }

// LocalNodeWithID returns the local index carrying identifier id, or -1.
func (v *View) LocalNodeWithID(id int) int {
	for i, x := range v.IDs {
		if x != 0 && x == id {
			return i
		}
	}
	return -1
}

// Key mirrors the real canonical serialization, which embeds the raw label
// bytes; certflow treats its result as a certificate source.
func (v *View) Key() string {
	s := ""
	for _, l := range v.Labels {
		s += l
	}
	return s
}

// BinKey mirrors the binary canonical key; also a certflow source.
func (v *View) BinKey() []byte { return []byte(v.Key()) }

// KeyDigest mirrors the real redacted fingerprint; a certflow sanitizer.
func (v *View) KeyDigest() string { return "fnv32a:00000000#0" }
