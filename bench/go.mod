module semitri/bench

go 1.24

require semitri v0.0.0

replace semitri => ../
