package xq

import (
	"fmt"
	"strings"

	"repro/internal/exec"
)

// Explain renders the physical plan the engine would execute for the
// query, without running it: the structural access path, the score-
// generation pseudo-terms with their posting-list sizes (phrases are
// marked as PhraseFinder-derived), the Pick configuration, and the output
// operators. Useful for understanding why a query is fast or slow.
func (e *Engine) Explain(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if len(q.Fors) > 1 {
		return e.explainJoin(q, &sb)
	}
	return e.explainSingle(q, &sb)
}

func (e *Engine) explainSingle(q *Query, sb *strings.Builder) (string, error) {
	f := q.Fors[0]
	doc := e.docByName(f.Path.Document)
	if doc == nil {
		return "", fmt.Errorf("xq: document %q not loaded", f.Path.Document)
	}
	fmt.Fprintf(sb, "plan for $%s over document(%q):\n", f.Var, f.Path.Document)
	expand := false
	for _, s := range f.Path.Steps {
		switch s.Kind {
		case StepDescendant:
			fmt.Fprintf(sb, "  extent scan //%s (%d elements)\n", s.Name, len(e.tagExtent(doc, s.Name)))
		case StepChild:
			fmt.Fprintf(sb, "  child step /%s\n", s.Name)
		case StepPredicate:
			fmt.Fprintf(sb, "  filter %s (navigational)\n", s.Pred)
		case StepDescendantOrSelf:
			expand = true
			fmt.Fprintf(sb, "  expand descendant-or-self::* (result granularities)\n")
		}
	}
	if q.Score != nil {
		fmt.Fprintf(sb, "  score via %s:\n", scoreMethod(expand))
		e.explainPhrases(sb, q.Score)
	}
	if q.Pick != nil {
		th := 0.8
		if q.Pick.HasThresh {
			th = q.Pick.Threshold
		}
		fmt.Fprintf(sb, "  pick: StackPick, relevance threshold %g, level-parity classes\n", th)
	}
	e.explainOutput(sb, q)
	return sb.String(), nil
}

func scoreMethod(expand bool) string {
	if expand {
		return "TermJoin (stack-based merge over posting lists)"
	}
	return "per-anchor subtree scan"
}

func (e *Engine) explainPhrases(sb *strings.Builder, sc *ScoreClause) {
	describe := func(ph string, w float64) {
		terms := e.Index.Tokenizer().SplitPhrase(ph)
		switch len(terms) {
		case 0:
			fmt.Fprintf(sb, "    %q: empty phrase\n", ph)
		case 1:
			fmt.Fprintf(sb, "    term %q: %d postings, weight %g\n",
				terms[0], e.Index.TermFreq(terms[0]), w)
		default:
			pf := &exec.PhraseFinder{Index: e.Index, Phrase: terms}
			ms, err := exec.CollectPhrase(pf.Run)
			n := 0
			if err == nil {
				n = len(ms)
			}
			fmt.Fprintf(sb, "    phrase %q: PhraseFinder over %d terms → %d pseudo-postings, weight %g\n",
				ph, len(terms), n, w)
		}
	}
	for _, ph := range sc.Primary {
		describe(ph, sc.PrimaryWeight)
	}
	for _, ph := range sc.Secondary {
		describe(ph, sc.SecondaryWeight)
	}
}

func (e *Engine) explainOutput(sb *strings.Builder, q *Query) {
	if q.Threshold != nil && q.Threshold.HasMin {
		fmt.Fprintf(sb, "  threshold: score > %g\n", q.Threshold.MinScore)
	}
	if q.SortBy {
		fmt.Fprintf(sb, "  sort: by score, descending\n")
	}
	if q.Threshold != nil && q.Threshold.HasStopK {
		fmt.Fprintf(sb, "  limit: stop after %d\n", q.Threshold.StopK)
	}
}

func (e *Engine) explainJoin(q *Query, sb *strings.Builder) (string, error) {
	if len(q.Fors) != 3 || q.Let == nil {
		return "", fmt.Errorf("xq: unsupported join shape (see evalJoin requirements)")
	}
	left, right, comp := q.Fors[0], q.Fors[1], q.Fors[2]
	fmt.Fprintf(sb, "join plan:\n")
	fmt.Fprintf(sb, "  left  $%s: document(%q) %s\n", left.Var, left.Path.Document, stepsString(left.Path.Steps))
	fmt.Fprintf(sb, "  right $%s: document(%q) %s\n", right.Var, right.Path.Document, stepsString(right.Path.Steps))
	fmt.Fprintf(sb, "  join condition: ScoreSim($%s/%s, $%s/%s)",
		q.Let.LeftVar, q.Let.LeftKey, q.Let.RightVar, q.Let.RightKey)
	if q.Where != nil {
		fmt.Fprintf(sb, " filtered to > %g", q.Where.Min)
	}
	sb.WriteString("\n")
	fmt.Fprintf(sb, "  components $%s: descendant-or-self of $%s, scored via TermJoin:\n", comp.Var, left.Var)
	if q.Score != nil {
		e.explainPhrases(sb, q.Score)
	}
	if q.Pick != nil {
		fmt.Fprintf(sb, "  pick: StackPick per left anchor\n")
	}
	if q.Combine != nil {
		fmt.Fprintf(sb, "  combine: ScoreBar($%s, $%s)\n", q.Combine.SimVar, q.Combine.CompVar)
	}
	e.explainOutput(sb, q)
	return sb.String(), nil
}

func stepsString(steps []Step) string {
	var sb strings.Builder
	for _, s := range steps {
		sb.WriteString(s.String())
	}
	return sb.String()
}
