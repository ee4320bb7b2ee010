type cell

val load : cell -> int
