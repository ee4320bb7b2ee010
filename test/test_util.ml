(* Tests for tstm_util: RNG determinism, bit helpers, growable buffers,
   statistics and series rendering. *)

open Tstm_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Xrand                                                              *)
(* ------------------------------------------------------------------ *)

let test_xrand_deterministic () =
  let g1 = Xrand.create 42 and g2 = Xrand.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xrand.next_int64 g1)
      (Xrand.next_int64 g2)
  done

let test_xrand_seed_sensitivity () =
  let g1 = Xrand.create 1 and g2 = Xrand.create 2 in
  check_bool "different seeds diverge"
    false
    (Xrand.next_int64 g1 = Xrand.next_int64 g2)

let test_xrand_split_independent () =
  let g = Xrand.create 7 in
  let g' = Xrand.split g in
  let a = Xrand.next_int64 g and b = Xrand.next_int64 g' in
  check_bool "split streams differ" false (a = b)

let test_xrand_int_range () =
  let g = Xrand.create 3 in
  for _ = 1 to 10_000 do
    let v = Xrand.int g 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_xrand_int_covers () =
  let g = Xrand.create 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 4_000 do
    seen.(Xrand.int g 8) <- true
  done;
  Array.iteri (fun i b -> check_bool (Printf.sprintf "value %d seen" i) true b) seen

let test_xrand_float_range () =
  let g = Xrand.create 11 in
  for _ = 1 to 10_000 do
    let v = Xrand.float g in
    check_bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_xrand_percent_extremes () =
  let g = Xrand.create 13 in
  for _ = 1 to 1_000 do
    check_bool "0%% never" false (Xrand.below_percent g 0.0);
    check_bool "100%% always" true (Xrand.below_percent g 100.0)
  done

let test_xrand_percent_rate () =
  let g = Xrand.create 17 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Xrand.below_percent g 20.0 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n *. 100.0 in
  check_bool "about 20%" true (rate > 18.0 && rate < 22.0)

(* ------------------------------------------------------------------ *)
(* Bitops                                                             *)
(* ------------------------------------------------------------------ *)

let test_is_pow2 () =
  check_bool "1" true (Bitops.is_pow2 1);
  check_bool "2" true (Bitops.is_pow2 2);
  check_bool "1024" true (Bitops.is_pow2 1024);
  check_bool "0" false (Bitops.is_pow2 0);
  check_bool "3" false (Bitops.is_pow2 3);
  check_bool "neg" false (Bitops.is_pow2 (-4))

let test_ceil_pow2 () =
  check_int "1" 1 (Bitops.ceil_pow2 1);
  check_int "2" 2 (Bitops.ceil_pow2 2);
  check_int "3" 4 (Bitops.ceil_pow2 3);
  check_int "1000" 1024 (Bitops.ceil_pow2 1000);
  check_int "1024" 1024 (Bitops.ceil_pow2 1024)

let test_log2 () =
  check_int "1" 0 (Bitops.log2 1);
  check_int "2" 1 (Bitops.log2 2);
  check_int "2^20" 20 (Bitops.log2 (1 lsl 20))

let test_popcount () =
  check_int "0" 0 (Bitops.popcount 0);
  check_int "0xff" 8 (Bitops.popcount 0xff);
  check_int "pow2" 1 (Bitops.popcount (1 lsl 40))

let test_mix_nonneg_and_spread () =
  let seen = Hashtbl.create 64 in
  for i = 0 to 1_000 do
    let m = Bitops.mix i in
    check_bool "non-negative" true (m >= 0);
    Hashtbl.replace seen m ()
  done;
  check_bool "no trivial collisions" true (Hashtbl.length seen > 990)

(* qcheck properties *)

let prop_ceil_pow2 =
  QCheck.Test.make ~name:"ceil_pow2 is smallest pow2 >= n" ~count:500
    QCheck.(int_range 1 (1 lsl 20))
    (fun n ->
      let p = Bitops.ceil_pow2 n in
      Bitops.is_pow2 p && p >= n && (p = 1 || p / 2 < n))

let prop_log2_roundtrip =
  QCheck.Test.make ~name:"log2 inverts shift" ~count:100
    QCheck.(int_range 0 50)
    (fun i -> Bitops.log2 (1 lsl i) = i)

let prop_popcount_sum =
  QCheck.Test.make ~name:"popcount (a lor b) <= popcount a + popcount b"
    ~count:500
    QCheck.(pair (int_range 0 max_int) (int_range 0 max_int))
    (fun (a, b) ->
      Bitops.popcount (a lor b) <= Bitops.popcount a + Bitops.popcount b)

(* ------------------------------------------------------------------ *)
(* Growbuf                                                            *)
(* ------------------------------------------------------------------ *)

let test_growbuf_basic () =
  let b = Growbuf.create 2 in
  check_int "empty" 0 (Growbuf.length b);
  for i = 0 to 99 do
    Growbuf.push b (i * i)
  done;
  check_int "length" 100 (Growbuf.length b);
  for i = 0 to 99 do
    check_int "get" (i * i) (Growbuf.get b i)
  done

let test_growbuf_set () =
  let b = Growbuf.create 4 in
  Growbuf.push b 1;
  Growbuf.push b 2;
  Growbuf.set b 0 10;
  check_int "set" 10 (Growbuf.get b 0);
  check_int "untouched" 2 (Growbuf.get b 1)

let test_growbuf_clear_retains_capacity () =
  let b = Growbuf.create 1 in
  for i = 0 to 999 do
    Growbuf.push b i
  done;
  let cap = Growbuf.capacity b in
  Growbuf.clear b;
  check_int "cleared" 0 (Growbuf.length b);
  check_int "capacity kept" cap (Growbuf.capacity b);
  Growbuf.push b 5;
  check_int "reusable" 5 (Growbuf.get b 0)

let test_growbuf_shrink () =
  let b = Growbuf.create 4 in
  for i = 0 to 9 do
    Growbuf.push b i
  done;
  Growbuf.shrink b 4;
  check_int "shrunk" 4 (Growbuf.length b);
  Alcotest.check_raises "bad shrink" (Invalid_argument "Growbuf.shrink")
    (fun () -> Growbuf.shrink b 10)

let test_growbuf_bounds () =
  let b = Growbuf.create 4 in
  Growbuf.push b 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Growbuf.get") (fun () ->
      ignore (Growbuf.get b 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Growbuf.set") (fun () ->
      Growbuf.set b (-1) 0)

let prop_growbuf_model =
  QCheck.Test.make ~name:"growbuf behaves like a list" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let b = Growbuf.create 1 in
      List.iter (Growbuf.push b) xs;
      Growbuf.to_list b = xs)

(* ------------------------------------------------------------------ *)
(* Series                                                             *)
(* ------------------------------------------------------------------ *)

let sample_table =
  {
    Series.title = "t";
    x_label = "threads";
    x = [| 1.0; 2.0 |];
    columns = [ ("a", [| 10.0; 20.0 |]); ("b", [| 1.5; 2.5 |]) ];
  }

let test_table_csv () =
  let csv = Series.table_to_csv sample_table in
  Alcotest.(check string) "csv" "threads,a,b\n1,10,1.50\n2,20,2.50\n" csv

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_table_render_contains () =
  let s = Format.asprintf "%a" Series.pp_table sample_table in
  check_bool "has labels" true
    (contains ~sub:"== t ==" s && contains ~sub:"threads" s
   && contains ~sub:"20" s)

let test_growbuf_push_after_shrink () =
  let b = Growbuf.create 4 in
  for i = 0 to 9 do
    Growbuf.push b i
  done;
  Growbuf.shrink b 3;
  Growbuf.push b 99;
  Alcotest.(check (list int)) "contents" [ 0; 1; 2; 99 ] (Growbuf.to_list b)

let test_surface_render_contains () =
  let s =
    {
      Series.s_title = "surf";
      row_label = "r";
      col_label = "c";
      rows = [| 1.0 |];
      cols = [| 3.0; 4.0 |];
      values = [| [| 7.25; 8.0 |] |];
    }
  in
  let txt = Format.asprintf "%a" Series.pp_surface s in
  check_bool "title" true (contains ~sub:"== surf ==" txt);
  check_bool "value" true (contains ~sub:"7.25" txt);
  check_bool "axis labels" true (contains ~sub:"r" txt && contains ~sub:"c" txt)

let test_surface_csv () =
  let s =
    {
      Series.s_title = "surf";
      row_label = "r";
      col_label = "c";
      rows = [| 1.0; 2.0 |];
      cols = [| 3.0; 4.0 |];
      values = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |];
    }
  in
  Alcotest.(check string) "csv" "r\\c,3,4\n1,1,2\n2,3,4\n"
    (Series.surface_to_csv s)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "tstm_util"
    [
      ( "xrand",
        [
          Alcotest.test_case "deterministic" `Quick test_xrand_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_xrand_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick
            test_xrand_split_independent;
          Alcotest.test_case "int range" `Quick test_xrand_int_range;
          Alcotest.test_case "int covers" `Quick test_xrand_int_covers;
          Alcotest.test_case "float range" `Quick test_xrand_float_range;
          Alcotest.test_case "percent extremes" `Quick
            test_xrand_percent_extremes;
          Alcotest.test_case "percent rate" `Quick test_xrand_percent_rate;
        ] );
      ( "bitops",
        [
          Alcotest.test_case "is_pow2" `Quick test_is_pow2;
          Alcotest.test_case "ceil_pow2" `Quick test_ceil_pow2;
          Alcotest.test_case "log2" `Quick test_log2;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "mix" `Quick test_mix_nonneg_and_spread;
        ] );
      qsuite "bitops-props" [ prop_ceil_pow2; prop_log2_roundtrip; prop_popcount_sum ];
      ( "growbuf",
        [
          Alcotest.test_case "push/get" `Quick test_growbuf_basic;
          Alcotest.test_case "set" `Quick test_growbuf_set;
          Alcotest.test_case "clear" `Quick test_growbuf_clear_retains_capacity;
          Alcotest.test_case "shrink" `Quick test_growbuf_shrink;
          Alcotest.test_case "push after shrink" `Quick
            test_growbuf_push_after_shrink;
          Alcotest.test_case "bounds" `Quick test_growbuf_bounds;
        ] );
      qsuite "growbuf-props" [ prop_growbuf_model ];
      ( "series",
        [
          Alcotest.test_case "table csv" `Quick test_table_csv;
          Alcotest.test_case "table render" `Quick test_table_render_contains;
          Alcotest.test_case "surface render" `Quick
            test_surface_render_contains;
          Alcotest.test_case "surface csv" `Quick test_surface_csv;
        ] );
    ]
