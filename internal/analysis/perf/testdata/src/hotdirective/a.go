// Fixture for the hotdirective analyzer: directive-grammar edge cases —
// unknown directive names, missing mandatory reasons, annotations on the
// wrong line relative to the declaration, duplicated annotations, and
// misspelled invariants. Well-formed annotations pass silently.
package hotdirective

//lukewarm:hotpath noalloc fixture: well-formed annotation
func wellFormed(a, b int) int { return a + b }

type counter struct{ n int }

// bump is documented prose followed by the directive on the last line, the
// sanctioned placement.
//lukewarm:hotpath noalloc,nobce fixture: well-formed method annotation
func (c *counter) bump() { c.n++ }

//lukewarm:hotpaths noalloc typo in the directive name // want `unknown lukewarm directive "hotpaths"`
func typoName() {}

//lukewarm:hotpath noalloc // want `requires a reason after the invariant list`
func missingReason() {}

//lukewarm:hotpath // want `missing its invariant list`
func bareAnnotation() {}

//lukewarm:hotpath noallocs,inline misspelled invariant // want `unknown hotpath invariant "noallocs"`
func unknownInvariant() {}

//lukewarm:hotpath noalloc stranded above a blank line // want `must sit directly above a function declaration`

func strandedBelow() {}

//lukewarm:hotpath noalloc above the prose, not directly above the func // want `must be the last line of docAbove's doc comment`
// docAbove is documented, which pushes the directive off the declaration.
func docAbove() {}

//lukewarm:hotpath noalloc first of two // want `must be the last line of doubled's doc comment`
//lukewarm:hotpath nobce second of two // want `duplicate //lukewarm:hotpath annotation on doubled`
func doubled() {}

func host(m map[int]int) int {
	//lukewarm:hotpath noalloc directive inside a body // want `must sit directly above a function declaration`
	s := 0
	for _, v := range m {
		s += v
	}
	//lukewarm:ordered // want `//lukewarm:ordered requires a reason; a bare directive does not waive`
	return s
}
