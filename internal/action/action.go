// Package action defines the corrective actions a monitor can recommend to
// the intermittent runtime when a property fails (Table 1's onFail
// constructs). It is a leaf package shared by the property specification
// language, the intermediate language, and the runtime.
package action

import "fmt"

// Action identifies one corrective action.
type Action int

// Actions, ordered by increasing severity. When several monitors fail on
// the same event, the runtime takes the most severe requested action (§3.3:
// "the runtime determines the appropriate course of action in response to
// the suggested ones").
const (
	None Action = iota
	RestartTask
	SkipTask
	RestartPath
	SkipPath
	CompletePath
)

var names = [...]string{
	None:         "none",
	RestartTask:  "restartTask",
	SkipTask:     "skipTask",
	RestartPath:  "restartPath",
	SkipPath:     "skipPath",
	CompletePath: "completePath",
}

func (a Action) String() string {
	if a >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Valid reports whether a is a defined action (including None).
func (a Action) Valid() bool { return a >= None && a <= CompletePath }

// Parse resolves an action name as written in specifications (None is not
// nameable in source).
func Parse(s string) (Action, error) {
	for a, name := range names {
		if Action(a) != None && name == s {
			return Action(a), nil
		}
	}
	return None, fmt.Errorf("unknown onFail action %q (want restartTask, skipTask, restartPath, skipPath, or completePath)", s)
}
