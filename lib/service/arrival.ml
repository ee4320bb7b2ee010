(* Arrival processes, sampled by thinning.

   Thinning keeps the sampler exact for any bounded rate function: draw
   candidate gaps from an exponential at the peak rate, accept each
   candidate with probability rate(t)/peak.  One [Xrand] stream drives
   both draws, so the schedule is a pure function of (process, seed,
   horizon). *)

type shape =
  | Poisson
  | Bursty of { boost : float; period : float }
  | Diurnal of { amp : float; period : float }

type t = { shape : shape; rate : float }

let duty = 0.25

let rate_at t ~now =
  match t.shape with
  | Poisson -> t.rate
  | Bursty { boost; period } ->
      let phase = Float.rem now period /. period in
      if phase < duty then t.rate *. boost else t.rate
  | Diurnal { amp; period } ->
      t.rate *. (1.0 +. (amp *. sin (2.0 *. Float.pi *. now /. period)))

let peak_rate t =
  match t.shape with
  | Poisson -> t.rate
  | Bursty { boost; _ } -> t.rate *. boost
  | Diurnal { amp; _ } -> t.rate *. (1.0 +. amp)

let mean_rate t =
  match t.shape with
  | Poisson | Diurnal _ -> t.rate
  | Bursty { boost; _ } -> t.rate *. (1.0 +. (duty *. (boost -. 1.0)))

let scale t rate = { t with rate }

let times t ~seed ~horizon =
  let g = Tstm_util.Xrand.create (Tstm_util.Bitops.mix seed) in
  let lmax = peak_rate t in
  if lmax <= 0.0 || horizon <= 0.0 then []
  else
    let rec go now acc =
      (* Xrand.float is in [0, 1); shift away from 0 so log stays finite. *)
      let u = 1.0 -. Tstm_util.Xrand.float g in
      let now = now +. (-.log u /. lmax) in
      if now >= horizon then List.rev acc
      else if Tstm_util.Xrand.float g *. lmax <= rate_at t ~now then
        go now (now :: acc)
      else go now acc
    in
    go 0.0 []

let to_string t =
  let f = Tstm_util.Float_text.to_string in
  String.concat ":"
    (match t.shape with
    | Poisson -> [ "poisson"; f t.rate ]
    | Bursty { boost; period } -> [ "bursty"; f t.rate; f boost; f period ]
    | Diurnal { amp; period } -> [ "diurnal"; f t.rate; f period; f amp ])

let usage =
  "known arrival processes: poisson:RATE, bursty:RATE:BOOST:PERIOD, \
   diurnal:RATE:PERIOD[:AMP]"

let pos_float s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v && v > 0.0 -> Some v
  | _ -> None

let of_string s =
  let parts = String.split_on_char ':' s in
  match parts with
  | [ "poisson"; r ] -> (
      match pos_float r with
      | Some rate -> Ok { shape = Poisson; rate }
      | None -> Error "poisson:RATE needs a positive finite rate")
  | [ "bursty"; r; b; p ] -> (
      match (pos_float r, pos_float b, pos_float p) with
      | Some rate, Some boost, Some period when boost > 1.0 ->
          Ok { shape = Bursty { boost; period }; rate }
      | _ ->
          Error
            "bursty:RATE:BOOST:PERIOD needs positive finite values with \
             BOOST > 1")
  | [ "diurnal"; r; p ] | [ "diurnal"; r; p; "" ] -> (
      match (pos_float r, pos_float p) with
      | Some rate, Some period ->
          Ok { shape = Diurnal { amp = 0.8; period }; rate }
      | _ -> Error "diurnal:RATE:PERIOD needs positive finite values")
  | [ "diurnal"; r; p; a ] -> (
      match (pos_float r, pos_float p, float_of_string_opt a) with
      | Some rate, Some period, Some amp
        when Float.is_finite amp && amp >= 0.0 && amp < 1.0 ->
          Ok { shape = Diurnal { amp; period }; rate }
      | _ ->
          Error
            "diurnal:RATE:PERIOD:AMP needs positive finite RATE/PERIOD and \
             0 <= AMP < 1")
  | _ -> Error (Printf.sprintf "cannot parse arrival process %S (%s)" s usage)
