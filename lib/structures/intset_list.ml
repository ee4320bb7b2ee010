(** Sorted singly-linked integer list (the paper's linked-list benchmark,
    §3.3): every operation traverses from the head, so read sets grow
    linearly with the structure size and all transactions touch the same
    prefix of nodes — the adversarial case for STM scalability.
    Population is the exception: {!add_from} starts its search at a
    finger, the new key's predecessor, so filling the list reads a few
    words per insert instead of walking from the head.

    Node layout in word memory: [value; next].  Head and tail sentinels hold
    [min_int] and [max_int]. *)

module Make (T : Tstm_tm.Tm_intf.TM) : sig
  include Set_intf.SET with type stm := T.t and type tx := T.tx

  val head : t -> int
  (** Address of the head sentinel, whose key [min_int] is below every
      key: a finger for any insert. *)

  val add_from : t -> T.tx -> finger:int -> int -> int option
  (** [add_from t tx ~finger v] is {!add} with the search started at
      [finger] when [finger]'s key is below [v], and at the head otherwise
      (the transaction checks this itself).  Returns the new node's
      address, a finger for later inserts, or [None] when [v] was already
      present.  [finger] must be a live node of [t] (a sentinel, or a node
      inserted and not removed): a freed node's next word is not a list
      link. *)
end = struct
  type t = { head : int }

  let value tx a = T.read tx a
  let next tx a = T.read tx (a + 1)
  let set_value tx a v = T.write tx a v
  let set_next tx a n = T.write tx (a + 1) n

  let create stm =
    T.atomically stm (fun tx ->
        let tail = T.alloc tx 2 in
        set_value tx tail max_int;
        set_next tx tail 0;
        let head = T.alloc tx 2 in
        set_value tx head min_int;
        set_next tx head tail;
        { head })

  let head t = t.head

  (* First node with value >= v, together with its predecessor, searching
     from [start], a node whose value is below v. *)
  let locate_from tx start v =
    let rec go prev curr =
      let cv = value tx curr in
      if cv >= v then (prev, curr, cv) else go curr (next tx curr)
    in
    go start (next tx start)

  let locate t tx v = locate_from tx t.head v

  let check_key v =
    if v = min_int || v = max_int then invalid_arg "Intset_list: reserved key"

  let contains t tx v =
    check_key v;
    let _, _, cv = locate t tx v in
    cv = v

  (* Link a new node holding v between prev and curr; returns its address. *)
  let link tx prev curr v =
    let n = T.alloc tx 2 in
    set_value tx n v;
    set_next tx n curr;
    set_next tx prev n;
    n

  let add t tx v =
    check_key v;
    let prev, curr, cv = locate t tx v in
    if cv = v then false
    else begin
      ignore (link tx prev curr v);
      true
    end

  let add_from t tx ~finger v =
    check_key v;
    let start = if value tx finger < v then finger else t.head in
    let prev, curr, cv = locate_from tx start v in
    if cv = v then None else Some (link tx prev curr v)

  let remove t tx v =
    check_key v;
    let prev, curr, cv = locate t tx v in
    if cv <> v then false
    else begin
      set_next tx prev (next tx curr);
      T.free tx curr 2;
      true
    end

  let overwrite_upto t tx v =
    check_key v;
    let rec go curr count =
      let cv = value tx curr in
      if cv >= v then count
      else begin
        set_value tx curr cv;
        go (next tx curr) (count + 1)
      end
    in
    go (next tx t.head) 0

  let size t tx =
    let rec go curr count =
      let cv = value tx curr in
      if cv = max_int then count else go (next tx curr) (count + 1)
    in
    go (next tx t.head) 0

  let to_list t tx =
    let rec go curr acc =
      let cv = value tx curr in
      if cv = max_int then List.rev acc else go (next tx curr) (cv :: acc)
    in
    go (next tx t.head) []
end
