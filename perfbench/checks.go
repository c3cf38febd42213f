package main

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"spacedc/internal/report"
)

// nonFinite matches a rendered NaN or infinity.
var nonFinite = regexp.MustCompile(`(?i)(^|[^a-z])[+-]?(nan|inf(inity)?)([^a-z]|$)`)

// checkRegistry checks one pass's tables against properties the paper's
// models must have, computed apart from the program:
//   - every ID yields at least one table with rows and no NaN or Inf cell;
//   - Fig 14 (Cloud AI 100) needs no more SµDCs than Fig 9 (RTX 3090) in
//     any cell;
//   - the Fig 16 cells are ordered software ≤ dual ≤ triple;
//   - every Fig 15 coverage gap is 0 s;
//   - Table 4's SAR compression ratio exceeds RGB's for every codec;
//   - Table 8's 3 m / 0 ED / 1 Gb/s cell is the paper's 9.
func checkRegistry(ids []string, tables map[string][]report.Table) error {
	var errs []error
	for _, id := range ids {
		ts := tables[id]
		if len(ts) == 0 {
			errs = append(errs, fmt.Errorf("%s: no tables", id))
		}
		for _, t := range ts {
			if len(t.Rows) == 0 {
				errs = append(errs, fmt.Errorf("%s: table %q has no rows", id, t.Title))
			}
			for _, row := range t.Rows {
				for _, cell := range row {
					if nonFinite.MatchString(cell) {
						errs = append(errs, fmt.Errorf("%s: table %q has a non-finite cell %q", id, t.Title, cell))
					}
				}
			}
		}
	}
	errs = append(errs,
		checkFig14(tables["fig9"], tables["fig14"]),
		checkFig16(tables["fig16"]),
		checkFig15(tables["fig15"]),
		checkTable4(tables["table4"]),
		checkTable8(tables["table8"]))
	return errors.Join(errs...)
}

// checkFig14 checks that no Fig 14 cell needs more SµDCs than the Fig 9
// cell for the same application and operating point.
func checkFig14(fig9, fig14 []report.Table) error {
	if len(fig9) != 1 || len(fig14) != 1 {
		return fmt.Errorf("fig9/fig14: want one table each, have %d and %d", len(fig9), len(fig14))
	}
	return cellsOrdered("fig14 ≤ fig9", fig14[0], fig9[0])
}

// checkFig16 checks that the software, dual and triple hardening tables
// are ordered cell by cell.
func checkFig16(ts []report.Table) error {
	if len(ts) != 3 {
		return fmt.Errorf("fig16: want 3 tables (software, 2x, 3x), have %d", len(ts))
	}
	for i, want := range []string{"software", "2x", "3x"} {
		if !strings.Contains(ts[i].Title, want) {
			return fmt.Errorf("fig16: table %d is %q, want the %s hardening", i, ts[i].Title, want)
		}
	}
	if err := cellsOrdered("fig16 software ≤ dual", ts[0], ts[1]); err != nil {
		return err
	}
	return cellsOrdered("fig16 dual ≤ triple", ts[1], ts[2])
}

// cellsOrdered checks lo ≤ hi for every numeric cell of two tables with
// the same shape, matching rows by their first cell.
func cellsOrdered(what string, lo, hi report.Table) error {
	if len(lo.Rows) != len(hi.Rows) || len(lo.Columns) != len(hi.Columns) {
		return fmt.Errorf("%s: tables differ in shape", what)
	}
	for r := range lo.Rows {
		if lo.Rows[r][0] != hi.Rows[r][0] || len(lo.Rows[r]) != len(hi.Rows[r]) {
			return fmt.Errorf("%s: row %d is %q against %q", what, r, lo.Rows[r][0], hi.Rows[r][0])
		}
		for c := 1; c < len(lo.Rows[r]); c++ {
			a, errA := strconv.ParseFloat(lo.Rows[r][c], 64)
			b, errB := strconv.ParseFloat(hi.Rows[r][c], 64)
			if errA != nil || errB != nil {
				return fmt.Errorf("%s: %s %s: non-numeric cell %q / %q", what, lo.Rows[r][0], lo.Columns[c], lo.Rows[r][c], hi.Rows[r][c])
			}
			if a > b {
				return fmt.Errorf("%s: %s %s: %v > %v", what, lo.Rows[r][0], lo.Columns[c], a, b)
			}
		}
	}
	return nil
}

// checkFig15 checks that the GEO star leaves no coverage gap.
func checkFig15(ts []report.Table) error {
	if len(ts) != 1 {
		return fmt.Errorf("fig15: want one table, have %d", len(ts))
	}
	col := column(ts[0], "worst coverage gap")
	if col < 0 {
		return fmt.Errorf("fig15: no coverage-gap column")
	}
	for _, row := range ts[0].Rows {
		if row[col] != "0s" {
			return fmt.Errorf("fig15: %s has a coverage gap of %s", row[0], row[col])
		}
	}
	return nil
}

// checkTable4 checks that SAR compresses better than RGB under every codec.
func checkTable4(ts []report.Table) error {
	if len(ts) != 1 {
		return fmt.Errorf("table4: want one table, have %d", len(ts))
	}
	rgb, sar := row(ts[0], "RGB"), row(ts[0], "SAR")
	if rgb == nil || sar == nil {
		return fmt.Errorf("table4: missing RGB or SAR row")
	}
	for c := 1; c < len(rgb); c++ {
		a, errA := strconv.ParseFloat(rgb[c], 64)
		b, errB := strconv.ParseFloat(sar[c], 64)
		if errA != nil || errB != nil {
			return fmt.Errorf("table4: %s: non-numeric ratio %q / %q", ts[0].Columns[c], rgb[c], sar[c])
		}
		if b <= a {
			return fmt.Errorf("table4: %s: SAR ratio %v does not exceed RGB's %v", ts[0].Columns[c], b, a)
		}
	}
	return nil
}

// checkTable8 checks the cell the paper states: at 3 m and no early
// discard, one SµDC on a 1 Gbit/s ring supports 9 EO satellites.
func checkTable8(ts []report.Table) error {
	if len(ts) != 1 {
		return fmt.Errorf("table8: want one table, have %d", len(ts))
	}
	col := column(ts[0], "1 Gbit/s")
	for _, r := range ts[0].Rows {
		if r[0] == "3 m" && r[1] == "0.00" {
			if col < 0 || r[col] != "9" {
				return fmt.Errorf("table8: 3 m / 0 ED / 1 Gbit/s cell is %v, the paper's is 9", r)
			}
			return nil
		}
	}
	return fmt.Errorf("table8: no 3 m / 0.00 row")
}

// findTable returns the table with the given ID.
func findTable(ts []report.Table, id string) (report.Table, bool) {
	for _, t := range ts {
		if t.ID == id {
			return t, true
		}
	}
	return report.Table{}, false
}

// column returns the index of the named column, or -1.
func column(t report.Table, name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// row returns the row whose first cell is name, or nil.
func row(t report.Table, name string) []string {
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == name {
			return r
		}
	}
	return nil
}
