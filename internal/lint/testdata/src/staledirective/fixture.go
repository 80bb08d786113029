// Package staledirective carries live, stale and unjudged //lint:ignore
// directives so the stale-directive report can be exercised: a stale one
// names an analyzer that runs here yet suppresses nothing, an analyzer not
// in the suite, or one whose Match excludes this package.
package staledirective

type Log struct{}

func (l *Log) Force() error { return nil }

// forceLoose: the directive below suppresses a real forcecheck finding, so
// it is used, not stale.
func forceLoose(l *Log) {
	//lint:ignore forcecheck fixture: the force error is observed out of band
	l.Force()
}

// forceTight: nothing beneath this directive trips forcecheck, so the
// directive itself is reported.
func forceTight(l *Log) error {
	//lint:ignore forcecheck fixture: nothing here needs ignoring // want "stale //lint:ignore forcecheck"
	return l.Force()
}

// idle: lockorder does not run in this fixture, so its directive is not
// judged and must not be reported stale.
func idle(l *Log) error {
	//lint:ignore lockorder fixture: this analyzer does not run here
	return l.Force()
}

// unknown: no analyzer of that name is in the suite, so the directive can
// never suppress anything.
func unknown(l *Log) error {
	//lint:ignore walorder fixture: no such analyzer // want "stale //lint:ignore walorder: \"walorder\" is not an lllint analyzer"
	return l.Force()
}

// excluded: replaydeterminism's Match rejects this package, so the
// directive is dead even though that analyzer did not run here.
func excluded(l *Log) error {
	//lint:ignore replaydeterminism fixture: never runs on this package // want "stale //lint:ignore replaydeterminism: replaydeterminism never runs on fixture/staledirective"
	return l.Force()
}

// mixed: one dead name condemns the directive even beside a live one.
func mixed(l *Log) {
	//lint:ignore forcecheck,nosuch fixture: one name is not an analyzer // want "stale //lint:ignore forcecheck,nosuch: \"nosuch\" is not an lllint analyzer"
	l.Force()
}
