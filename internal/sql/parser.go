package sql

import (
	"fmt"
	"strconv"
	"strings"

	"ps3/internal/query"
)

// Parse parses one SQL statement into a PS3 query. The table name in FROM
// is returned alongside (PS3 queries are single-table; the caller binds the
// name to a concrete table).
func Parse(src string) (*query.Query, string, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, "", err
	}
	p := &parser{toks: toks, src: src}
	q, table, err := p.parseSelect()
	if err != nil {
		return nil, "", err
	}
	if !p.at(tokEOF) {
		return nil, "", p.errorf("trailing input %q", p.cur().text)
	}
	return q, table, nil
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) cur() token               { return p.toks[p.i] }
func (p *parser) at(k tokKind) bool        { return p.cur().kind == k }
func (p *parser) atKeyword(kw string) bool { return p.cur().keyword(kw) }

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, p.errorf("expected %s, found %q", what, p.cur().text)
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errorf("expected %s, found %q", strings.ToUpper(kw), p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// selectItem is one entry of the select list before group-by resolution.
type selectItem struct {
	agg *query.Aggregate
	col string // plain column reference
}

// parseSelect parses SELECT ... FROM ident [WHERE pred] [GROUP BY cols].
func (p *parser) parseSelect() (*query.Query, string, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, "", err
	}
	var items []selectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, "", err
		}
		items = append(items, item)
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, "", err
	}
	tbl, err := p.expect(tokIdent, "table name")
	if err != nil {
		return nil, "", err
	}

	q := &query.Query{}
	if p.atKeyword("where") {
		p.advance()
		pred, err := p.parseOr()
		if err != nil {
			return nil, "", err
		}
		q.Pred = pred
	}
	if p.atKeyword("group") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, "", err
		}
		for {
			c, err := p.expect(tokIdent, "group-by column")
			if err != nil {
				return nil, "", err
			}
			q.GroupBy = append(q.GroupBy, c.text)
			if !p.at(tokComma) {
				break
			}
			p.advance()
		}
	}

	// Resolve select items: plain columns must appear in GROUP BY (they are
	// group labels, not aggregates); aggregates carry over directly.
	inGroupBy := map[string]bool{}
	for _, g := range q.GroupBy {
		inGroupBy[g] = true
	}
	for _, item := range items {
		if item.agg != nil {
			q.Aggs = append(q.Aggs, *item.agg)
			continue
		}
		if !inGroupBy[item.col] {
			return nil, "", fmt.Errorf("sql: column %q in SELECT is neither aggregated nor in GROUP BY", item.col)
		}
	}
	if len(q.Aggs) == 0 {
		return nil, "", fmt.Errorf("sql: query has no aggregates (scope requires SUM/COUNT/AVG)")
	}
	return q, tbl.text, nil
}

// parseSelectItem parses one select-list entry: a plain column, or
// SUM(expr) / COUNT(*) / AVG(expr) with optional FILTER (WHERE pred) and
// optional AS alias.
func (p *parser) parseSelectItem() (selectItem, error) {
	if !p.at(tokIdent) {
		return selectItem{}, p.errorf("expected column or aggregate, found %q", p.cur().text)
	}
	name := p.cur().text
	var kind query.AggKind
	isAgg := true
	switch {
	case strings.EqualFold(name, "sum"):
		kind = query.Sum
	case strings.EqualFold(name, "count"):
		kind = query.Count
	case strings.EqualFold(name, "avg"):
		kind = query.Avg
	default:
		isAgg = false
	}
	if !isAgg || p.toks[p.i+1].kind != tokLParen {
		// Plain column reference.
		p.advance()
		return selectItem{col: name}, nil
	}
	p.advance() // aggregate name
	p.advance() // (
	agg := query.Aggregate{Kind: kind}
	if kind == query.Count {
		if _, err := p.expect(tokStar, "* in COUNT(*)"); err != nil {
			return selectItem{}, err
		}
	} else {
		expr, err := p.parseLinearExpr()
		if err != nil {
			return selectItem{}, err
		}
		agg.Expr = expr
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return selectItem{}, err
	}
	// FILTER (WHERE pred) — the §2.2 CASE rewrite.
	if p.atKeyword("filter") {
		p.advance()
		if _, err := p.expect(tokLParen, "( after FILTER"); err != nil {
			return selectItem{}, err
		}
		if err := p.expectKeyword("where"); err != nil {
			return selectItem{}, err
		}
		pred, err := p.parseOr()
		if err != nil {
			return selectItem{}, err
		}
		if _, err := p.expect(tokRParen, ") after FILTER predicate"); err != nil {
			return selectItem{}, err
		}
		agg.Filter = pred
	}
	if p.atKeyword("as") {
		p.advance()
		alias, err := p.expect(tokIdent, "alias")
		if err != nil {
			return selectItem{}, err
		}
		agg.Name = alias.text
	}
	return selectItem{agg: &agg}, nil
}

// parseLinearExpr parses a ±-linear combination of columns and numeric
// constants: `a + b - 2`, `price`, `3 + tax`.
func (p *parser) parseLinearExpr() (query.LinearExpr, error) {
	var e query.LinearExpr
	sign := 1.0
	if p.at(tokMinus) {
		sign = -1
		p.advance()
	} else if p.at(tokPlus) {
		p.advance()
	}
	for {
		switch {
		case p.at(tokIdent):
			t := p.advance()
			term := query.Col(t.text)
			if sign < 0 {
				e = e.Sub(term)
			} else {
				e = e.Add(term)
			}
		case p.at(tokNumber):
			t := p.advance()
			v, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return e, p.errorf("bad number %q", t.text)
			}
			e.Const += sign * v
		default:
			return e, p.errorf("expected column or number in expression, found %q", p.cur().text)
		}
		switch {
		case p.at(tokPlus):
			sign = 1
			p.advance()
		case p.at(tokMinus):
			sign = -1
			p.advance()
		default:
			return e, nil
		}
	}
}

// parseOr parses pred OR pred OR ... (lowest precedence).
func (p *parser) parseOr() (query.Pred, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	children := []query.Pred{left}
	for p.atKeyword("or") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	return query.NewOr(children...), nil
}

// parseAnd parses pred AND pred AND ...
func (p *parser) parseAnd() (query.Pred, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	children := []query.Pred{left}
	for p.atKeyword("and") {
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	return query.NewAnd(children...), nil
}

// parseUnary parses NOT pred, a parenthesized predicate, or a clause.
func (p *parser) parseUnary() (query.Pred, error) {
	if p.atKeyword("not") {
		p.advance()
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &query.Not{Child: child}, nil
	}
	if p.at(tokLParen) {
		p.advance()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseClause()
}

// parseClause parses col op value, col IN (v, ...), col BETWEEN a AND b,
// or col NOT IN (...).
func (p *parser) parseClause() (query.Pred, error) {
	colTok, err := p.expect(tokIdent, "column name")
	if err != nil {
		return nil, err
	}
	col := colTok.text

	negate := false
	if p.atKeyword("not") {
		// col NOT IN (...) / col NOT BETWEEN a AND b
		p.advance()
		negate = true
	}

	switch {
	case p.atKeyword("in"):
		p.advance()
		if _, err := p.expect(tokLParen, "( after IN"); err != nil {
			return nil, err
		}
		var strs []string
		var nums []float64
		numeric := false
		for {
			switch {
			case p.at(tokString):
				strs = append(strs, p.advance().text)
			case p.at(tokNumber):
				numeric = true
				v, perr := strconv.ParseFloat(p.advance().text, 64)
				if perr != nil {
					return nil, p.errorf("bad number in IN list")
				}
				nums = append(nums, v)
			default:
				return nil, p.errorf("expected literal in IN list, found %q", p.cur().text)
			}
			if !p.at(tokComma) {
				break
			}
			p.advance()
		}
		if _, err := p.expect(tokRParen, ") after IN list"); err != nil {
			return nil, err
		}
		var pred query.Pred
		if numeric {
			// Numeric IN desugars to OR of equalities.
			var eqs []query.Pred
			for _, v := range nums {
				eqs = append(eqs, &query.Clause{Col: col, Op: query.OpEq, Num: v})
			}
			pred = query.NewOr(eqs...)
		} else {
			pred = &query.Clause{Col: col, Op: query.OpIn, Strs: strs}
		}
		if negate {
			pred = &query.Not{Child: pred}
		}
		return pred, nil

	case p.atKeyword("between"):
		p.advance()
		lo, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		var pred query.Pred = query.NewAnd(
			&query.Clause{Col: col, Op: query.OpGe, Num: lo},
			&query.Clause{Col: col, Op: query.OpLe, Num: hi},
		)
		if negate {
			pred = &query.Not{Child: pred}
		}
		return pred, nil
	}

	if negate {
		return nil, p.errorf("expected IN or BETWEEN after NOT")
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return nil, err
	}
	var op query.Op
	switch opTok.text {
	case "=":
		op = query.OpEq
	case "!=":
		op = query.OpNe
	case "<":
		op = query.OpLt
	case "<=":
		op = query.OpLe
	case ">":
		op = query.OpGt
	case ">=":
		op = query.OpGe
	}
	switch {
	case p.at(tokNumber), p.at(tokMinus):
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return &query.Clause{Col: col, Op: op, Num: v}, nil
	case p.at(tokString):
		s := p.advance().text
		switch op {
		case query.OpEq:
			return &query.Clause{Col: col, Op: query.OpEq, Strs: []string{s}}, nil
		case query.OpNe:
			return &query.Not{Child: &query.Clause{Col: col, Op: query.OpEq, Strs: []string{s}}}, nil
		default:
			return nil, p.errorf("operator %s not supported on string literals (scope: equality and IN)", opTok.text)
		}
	default:
		return nil, p.errorf("expected literal after %s, found %q", opTok.text, p.cur().text)
	}
}

// parseNumber parses a possibly negated numeric literal.
func (p *parser) parseNumber() (float64, error) {
	sign := 1.0
	if p.at(tokMinus) {
		sign = -1
		p.advance()
	}
	t, err := p.expect(tokNumber, "number")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errorf("bad number %q", t.text)
	}
	return sign * v, nil
}
