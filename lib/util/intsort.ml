(* LSD radix sort over digits of at most 16 bits with domain-local
   scratch, plus a k-way run-length merge of sorted buffers.  See
   intsort.mli. *)

let max_digit_bits = 16

let bits_of x =
  let b = ref 0 in
  while x lsr !b > 0 do
    incr b
  done;
  !b

(* Per-domain scratch: the ping-pong buffer grows to the largest sort
   seen on this domain; the digit counters are allocated once. *)
type scratch = { mutable aux : int array; mutable counts : int array }

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { aux = [||]; counts = [||] })

let sort ?len a =
  let n = match len with Some n -> n | None -> Array.length a in
  if n < 0 || n > Array.length a then invalid_arg "Intsort.sort: len";
  if n > 1 then begin
    let hi = ref 0 in
    for i = 0 to n - 1 do
      let x = Array.unsafe_get a i in
      if x < 0 then invalid_arg "Intsort.sort: negative key";
      if x > !hi then hi := x
    done;
    let s = Domain.DLS.get scratch_key in
    if Array.length s.aux < n then s.aux <- Array.make n 0;
    if Array.length s.counts = 0 then
      s.counts <- Array.make (1 lsl max_digit_bits) 0;
    let counts = s.counts in
    let src = ref a and dst = ref s.aux in
    (* A pass costs O(n + 2^digit): cap the digit near log2 n so the
       counters never dominate a small sort, then spread the key bits
       evenly over the passes that cap implies. *)
    let key_bits = bits_of !hi in
    let cap = min max_digit_bits (max 8 (bits_of n)) in
    let passes = max 1 ((key_bits + cap - 1) / cap) in
    let digit_bits = (key_bits + passes - 1) / passes in
    let radix = 1 lsl digit_bits in
    let digit_mask = radix - 1 in
    let shift = ref 0 in
    while !hi lsr !shift > 0 do
      Array.fill counts 0 radix 0;
      let sr = !src in
      for i = 0 to n - 1 do
        let d = (Array.unsafe_get sr i lsr !shift) land digit_mask in
        Array.unsafe_set counts d (Array.unsafe_get counts d + 1)
      done;
      let acc = ref 0 in
      for d = 0 to radix - 1 do
        let c = Array.unsafe_get counts d in
        Array.unsafe_set counts d !acc;
        acc := !acc + c
      done;
      let ds = !dst in
      for i = 0 to n - 1 do
        let x = Array.unsafe_get sr i in
        let d = (x lsr !shift) land digit_mask in
        let p = Array.unsafe_get counts d in
        Array.unsafe_set counts d (p + 1);
        Array.unsafe_set ds p x
      done;
      let tmp = !src in
      src := !dst;
      dst := tmp;
      shift := !shift + digit_bits
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

let merge_runs bufs f =
  let k = Array.length bufs in
  let idx = Array.make (max k 1) 0 in
  let continue = ref (k > 0) in
  while !continue do
    (* Smallest head across the buffers; max_int is the exhausted
       sentinel (keys are < max_int by contract). *)
    let best = ref max_int in
    for i = 0 to k - 1 do
      let a, len = bufs.(i) in
      if idx.(i) < len then begin
        let x = a.(idx.(i)) in
        if x < !best then best := x
      end
    done;
    if !best = max_int then continue := false
    else begin
      let key = !best in
      let count = ref 0 in
      for i = 0 to k - 1 do
        let a, len = bufs.(i) in
        let j = ref idx.(i) in
        while !j < len && a.(!j) = key do
          incr count;
          incr j
        done;
        idx.(i) <- !j
      done;
      f key !count
    end
  done
