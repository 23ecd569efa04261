(** Text heatmaps over a merged {!Cov.t} coverage map.

    Two grids, both rows-by-boundary-class: class x crash-ordinal bucket
    (where in the schedule crashes landed) and class x operation kind
    (what was in flight). Cells print their crash-trial count, ['.'] for
    an empty cell; each row ends with the class's enumerated / crashed /
    violated totals and an [UNHIT] flag when a campaign never crashed
    inside a class it enumerated. Output is a pure function of the map,
    so campaigns that merge deterministically render byte-identically at
    any [-j N]. *)

val render : Cov.t -> string
(** The full report: a summary head, both grids, and the unhit-class
    line ("unhit label classes: none" when coverage is full). *)
