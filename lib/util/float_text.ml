let to_string x =
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  if Float.is_finite x then go 6 else Printf.sprintf "%g" x
