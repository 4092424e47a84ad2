package yannakakis

import (
	"fmt"
	"strings"

	"repro/internal/cq"
)

// Explain renders a human-readable description of the prepared plan: the
// elimination steps (with the Lemma 8 replay entries), the top nodes and
// their join-tree order, and the preprocessing counters. Intended for the
// CLI tools and for debugging; the format is stable enough for golden
// tests but not a machine interface.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %s\n", p.Q)
	fmt.Fprintf(&b, "enumeration set S = {%s}\n", joinVars(p.SVars))

	b.WriteString("elimination log:\n")
	proj := p.proj
	for _, e := range p.shape.steps {
		switch e.kind {
		case 'p':
			fmt.Fprintf(&b, "  project %s out of atom #%d (pre-relation %d rows, replay-indexed)\n",
				p.shape.varName[e.removedID], e.node, proj[0].pre.Len())
			proj = proj[1:]
		case 'a':
			how := "semijoin"
			if e.implied {
				how = "implied by its provider: no semijoin"
			}
			fmt.Fprintf(&b, "  absorb atom #%d into atom #%d (%s)\n", e.node, e.into, how)
		case 't':
			fmt.Fprintf(&b, "  atom #%d becomes a top node\n", e.node)
		}
	}

	b.WriteString("top join tree (DFS order):\n")
	for pos, i := range p.shape.order {
		t := &p.shape.tops[i]
		parent := "root"
		if t.parent >= 0 {
			parent = fmt.Sprintf("child of top %d", t.parent)
		}
		fmt.Fprintf(&b, "  [%d] top %d over {%s} (%d rows, %s)\n",
			pos, i, joinVars(t.vars), p.pos[pos].rows, parent)
	}

	st := p.Stats()
	fmt.Fprintf(&b, "stats: %d projections, %d absorptions, %d tops, %d input values\n",
		st.Projections, st.Absorptions, st.Tops, st.InputValues)
	return b.String()
}

func joinVars(vars []cq.Variable) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = string(v)
	}
	return strings.Join(parts, ",")
}
