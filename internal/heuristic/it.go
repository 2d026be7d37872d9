package heuristic

// DefaultSeparatorList is the paper's ordered list of identifiable separator
// tags (§4.2), compiled by the authors from one hundred documents across ten
// sites: the most commonly used record-separator tags, most common first.
var DefaultSeparatorList = []string{
	"hr", "tr", "td", "a", "table", "p", "br", "h4", "h1", "strong", "b", "i",
}

// IT is the identifiable-"separator"-tags heuristic (§4.2): candidate tags
// are ranked by their position in a predetermined list of tags that authors
// and authoring tools commonly use to separate records. Candidates not on
// the list are discarded.
type IT struct {
	// List overrides the separator list; nil uses DefaultSeparatorList.
	List []string
}

// Name returns "IT".
func (IT) Name() string { return "IT" }

// Rank orders candidates by list position (a tag listed twice counts at
// its last position); tags absent from the list are dropped. ok is false
// when no candidate appears on the list.
func (h IT) Rank(ctx *Context) (Ranking, bool) {
	list := h.List
	if list == nil {
		list = DefaultSeparatorList
	}
	var r Ranking
	for _, c := range ctx.Candidates {
		for i := len(list) - 1; i >= 0; i-- {
			if list[i] == c.Name {
				if r == nil {
					r = make(Ranking, 0, len(ctx.Candidates))
				}
				r = append(r, Ranked{Tag: c.Name, Score: float64(i + 1)})
				break
			}
		}
	}
	if len(r) == 0 {
		return nil, false
	}
	return rank(r, true), true
}
