type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
}

let mean a =
  assert (Array.length a > 0);
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let maximum a =
  assert (Array.length a > 0);
  Array.fold_left Float.max a.(0) a

let summarize a =
  assert (Array.length a > 0);
  let n = Array.length a in
  let m = mean a in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a
    /. float_of_int n
  in
  {
    n;
    mean = m;
    min = Array.fold_left Float.min a.(0) a;
    max = maximum a;
    stddev = sqrt var;
  }
