package xq

import (
	"fmt"
	"sort"

	"repro/internal/scoring"
)

// evalJoin evaluates the Query 3 shape (Fig. 10): two document-bound For
// clauses joined by a similarity-scored Let condition, an optional Where
// threshold on the join score, a third For binding result components
// within the left side, ScoreFoo/Pick over the components, and a ScoreBar
// combination of the join score with the component score.
//
// The required clause pattern is
//
//	For $a in document("L")…          (left side, structural predicates ok)
//	For $b in document("R")…          (right side)
//	Let $sim := ScoreSim($a/key, $b/key)
//	Where $sim > V                    (optional)
//	For $d in $a/descendant-or-self::*
//	Score $d using ScoreFoo($d, {…}, {…})
//	Pick $d using PickFoo($d)         (optional)
//	Score $r using ScoreBar($sim, $d)
//	Sortby(score) / Threshold $r/@score … (optional)
func (e *Engine) evalJoin(q *Query) ([]Result, error) {
	if len(q.Fors) != 3 {
		return nil, fmt.Errorf("xq: join queries need exactly three For clauses (left, right, component), got %d", len(q.Fors))
	}
	left, right, comp := q.Fors[0], q.Fors[1], q.Fors[2]
	if left.Path.Document == "" || right.Path.Document == "" {
		return nil, fmt.Errorf("xq: the first two For clauses of a join must bind documents")
	}
	if comp.Path.BaseVar != left.Var {
		return nil, fmt.Errorf("xq: the component For must be relative to $%s, got %q", left.Var, comp.Path.BaseVar)
	}
	if q.Let == nil {
		return nil, fmt.Errorf("xq: join queries need a Let $sim := ScoreSim(...) clause")
	}
	if q.Let.LeftVar != left.Var || q.Let.RightVar != right.Var {
		return nil, fmt.Errorf("xq: ScoreSim must reference $%s and $%s", left.Var, right.Var)
	}
	if q.Where != nil && q.Where.Var != q.Let.Var {
		return nil, fmt.Errorf("xq: Where must reference the Let variable $%s", q.Let.Var)
	}
	if q.Score == nil {
		return nil, fmt.Errorf("xq: join queries need a Score … using ScoreFoo clause on $%s", comp.Var)
	}
	if q.Score.Var != comp.Var {
		return nil, fmt.Errorf("xq: ScoreFoo must score the component variable $%s", comp.Var)
	}
	if q.Combine == nil {
		return nil, fmt.Errorf("xq: join queries need a Score … using ScoreBar($%s, $%s) clause", q.Let.Var, comp.Var)
	}
	if q.Combine.SimVar != q.Let.Var || q.Combine.CompVar != comp.Var {
		return nil, fmt.Errorf("xq: ScoreBar must combine $%s with $%s", q.Let.Var, comp.Var)
	}

	leftDoc := e.docByName(left.Path.Document)
	if leftDoc == nil {
		return nil, fmt.Errorf("xq: document %q not loaded", left.Path.Document)
	}
	rightDoc := e.docByName(right.Path.Document)
	if rightDoc == nil {
		return nil, fmt.Errorf("xq: document %q not loaded", right.Path.Document)
	}
	acc := e.accessor()
	defer e.noteStats(acc)

	leftAnchors, leftExpand, err := e.evalSteps(acc, leftDoc, left.Path.Steps)
	if err != nil {
		return nil, err
	}
	if leftExpand {
		return nil, fmt.Errorf("xq: the left For of a join must bind elements, not descendant-or-self::*")
	}
	rightAnchors, rightExpand, err := e.evalSteps(acc, rightDoc, right.Path.Steps)
	if err != nil {
		return nil, err
	}
	if rightExpand {
		return nil, fmt.Errorf("xq: the right For of a join must bind elements, not descendant-or-self::*")
	}

	// Component binding: $a/descendant-or-self::* (further steps are not
	// supported in the join shape).
	if len(comp.Path.Steps) != 1 || comp.Path.Steps[0].Kind != StepDescendantOrSelf {
		return nil, fmt.Errorf("xq: the component For must be $%s/descendant-or-self::*", left.Var)
	}

	// Score and pick the components of each left anchor once.
	components, err := e.scoreAndPick(acc, leftDoc, leftAnchors, true, q)
	if err != nil {
		return nil, err
	}
	// Group components by their containing anchor (anchors are disjoint in
	// document order; recover by region containment).
	type anchorRange struct {
		ord      int32
		end      int32
		children []Result
	}
	ranges := make([]*anchorRange, 0, len(leftAnchors))
	for _, a := range leftAnchors {
		ranges = append(ranges, &anchorRange{ord: a, end: leftDoc.SubtreeEnd(a)})
	}
	for _, c := range components {
		for _, r := range ranges {
			if c.Ord >= r.ord && c.Ord < r.end {
				r.children = append(r.children, c)
				break
			}
		}
	}

	// Join: similarity between the anchors' key children (best pair when
	// several keys exist), Where-filtered, combined per component with
	// ScoreBar.
	tok := e.Index.Tokenizer()
	var out []Result
	for _, r := range ranges {
		if len(r.children) == 0 {
			continue
		}
		leftKeys, err := e.children(acc, leftDoc, []int32{r.ord}, q.Let.LeftKey)
		if err != nil {
			return nil, err
		}
		if len(leftKeys) == 0 {
			continue
		}
		for _, b := range rightAnchors {
			if err := e.Guard.Tick(); err != nil {
				return nil, err
			}
			rightKeys, err := e.children(acc, rightDoc, []int32{b}, q.Let.RightKey)
			if err != nil {
				return nil, err
			}
			if len(rightKeys) == 0 {
				continue
			}
			sim := 0.0
			for _, lk := range leftKeys {
				lt := directTextOf(acc, leftDoc, lk)
				for _, rk := range rightKeys {
					rt := directTextOf(acc, rightDoc, rk)
					if s := simOf(tok, lt, rt); s > sim {
						sim = s
					}
				}
			}
			if q.Where != nil && !(sim > q.Where.Min) {
				continue
			}
			rightNode := acc.Materialize(rightDoc.ID, b)
			for _, c := range r.children {
				score := scoring.ScoreBar(sim, c.Score)
				out = append(out, Result{
					Doc:   leftDoc.ID,
					Ord:   c.Ord,
					Score: score,
					Sim:   sim,
					Right: rightNode,
				})
			}
		}
	}

	// Threshold on the combined score, then sort and stop-after.
	if q.Threshold != nil {
		if q.Threshold.Var != q.Combine.Var && q.Threshold.Var != comp.Var {
			return nil, fmt.Errorf("xq: Threshold must reference $%s or $%s", q.Combine.Var, comp.Var)
		}
		if q.Threshold.HasMin {
			kept := out[:0]
			for _, r := range out {
				if r.Score > q.Threshold.MinScore {
					kept = append(kept, r)
				}
			}
			out = kept
		}
	}
	if q.SortBy || (q.Threshold != nil && q.Threshold.HasStopK) {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	}
	if q.Threshold != nil && q.Threshold.HasStopK && len(out) > q.Threshold.StopK {
		out = out[:q.Threshold.StopK]
	}
	for i := range out {
		if err := e.Guard.Tick(); err != nil {
			return nil, err
		}
		out[i].Node = acc.Materialize(out[i].Doc, out[i].Ord)
	}
	return out, nil
}

// simOf counts the distinct shared words of two key texts — ScoreSim of
// Fig. 9 over raw strings.
func simOf(tok interface{ Terms(string) []string }, a, b string) float64 {
	set := map[string]bool{}
	for _, t := range tok.Terms(a) {
		set[t] = true
	}
	seen := map[string]bool{}
	n := 0
	for _, t := range tok.Terms(b) {
		if set[t] && !seen[t] {
			seen[t] = true
			n++
		}
	}
	return float64(n)
}
