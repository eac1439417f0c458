package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

const annotationsName = "annotations"

// knownAnnotations maps every recognised //lint:<name> escape to the
// analyzer it silences.  An escape must carry a justification after the
// name; the annotation audit reports escapes with no justification, escapes
// that suppress nothing (stale), and unknown names (typos would otherwise
// silently fail to suppress).
var knownAnnotations = map[string]bool{
	"ordered":   true, // determinism: map iteration is order-independent or normalised
	"lockcheck": true, // lockcheck: guarded-field access outside the lock is safe here
	"ctxcheck":  true, // ctxcheck: this blocking loop terminates without cancellation
}

func knownAnnotationNames() string {
	names := make([]string, 0, len(knownAnnotations))
	for n := range knownAnnotations {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// annotation is one //lint:<name> comment with its justification text.
type annotation struct {
	name          string
	justification string
	pos           token.Pos
	line          int
	used          bool // an analyzer suppressed a finding with it
}

// parseAnnotations extracts every //lint: comment of a file, in position
// order.
func parseAnnotations(fset *token.FileSet, f *ast.File) []*annotation {
	var anns []*annotation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			body, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // block comments are not annotation carriers
			}
			rest, ok := strings.CutPrefix(strings.TrimSpace(body), "lint:")
			if !ok {
				continue
			}
			i := 0
			for i < len(rest) && (rest[i] >= 'a' && rest[i] <= 'z' || rest[i] == '_') {
				i++
			}
			just := strings.TrimLeft(rest[i:], " \t")
			just = strings.TrimSpace(strings.TrimLeft(just, "—–:-"))
			anns = append(anns, &annotation{
				name:          rest[:i],
				justification: just,
				pos:           c.Pos(),
				line:          fset.Position(c.Pos()).Line,
			})
		}
	}
	return anns
}

// annotationsFor returns the annotations named name in f and registers the
// (file, name) pair as consulted: after every analyzer has run, the
// annotation audit reports unjustified, stale and unknown annotations in
// consulted files (and only there, so decorative mentions of an annotation
// in unaudited packages are not misread as escapes).
func (p *pass) annotationsFor(f *ast.File, name string) []*annotation {
	if p.annFiles == nil {
		p.annFiles = make(map[*ast.File][]*annotation)
		p.annConsulted = make(map[*ast.File]map[string]bool)
	}
	anns, ok := p.annFiles[f]
	if !ok {
		anns = parseAnnotations(p.mod.Fset, f)
		p.annFiles[f] = anns
	}
	set := p.annConsulted[f]
	if set == nil {
		set = make(map[string]bool)
		p.annConsulted[f] = set
	}
	set[name] = true
	var out []*annotation
	for _, a := range anns {
		if a.name == name {
			out = append(out, a)
		}
	}
	return out
}

// suppressed reports whether an annotation sits on line or the line directly
// above, marking it used.  Suppression works even when the justification is
// empty — the audit still demands the justification separately, so an
// escape can never be both silent and undocumented.
func suppressed(anns []*annotation, line int) bool {
	hit := false
	for _, a := range anns {
		if a.line == line || a.line == line-1 {
			a.used = true
			hit = true
		}
	}
	return hit
}

// annotationAudit runs after every analyzer and reports the annotation
// hygiene diagnostics for all consulted files.
func annotationAudit(p *pass) {
	for _, pkg := range p.mod.Pkgs {
		for _, f := range pkg.Files {
			consulted := p.annConsulted[f]
			if consulted == nil {
				continue
			}
			for _, a := range p.annFiles[f] {
				if !knownAnnotations[a.name] {
					p.reportf(annotationsName, a.pos,
						"unknown annotation //lint:%s (known: %s)", a.name, knownAnnotationNames())
					continue
				}
				if !consulted[a.name] {
					continue // a different analyzer's escape; not audited here
				}
				if a.justification == "" {
					p.reportf(annotationsName, a.pos,
						"//lint:%s needs a justification — write //lint:%s — <why this is safe>", a.name, a.name)
				}
				if !a.used {
					p.reportf(annotationsName, a.pos,
						"stale //lint:%s annotation — it suppresses no finding; delete it", a.name)
				}
			}
		}
	}
}
